"""The threaded TCP front end: many clients, one ``Database``.

A :class:`CodsServer` listens on a socket and gives every accepted
connection its own handler thread and its own server-side
:class:`~repro.db.Session` — the thread-safe concurrent catalog
underneath (per-table writer locks, the commit lock, the background
compactor) does the actual multiplexing, exactly as in-process threads
would.  The wire conversation is the frame protocol of
:mod:`repro.server.protocol`; the command set mirrors the façade:

* ``execute`` / ``executemany`` — SQL *and* SMO text with qmark
  parameters, routed through the session (or through the connection's
  open transaction, which keeps read-your-writes across round trips);
* ``fetch`` / ``close_cursor`` — result sets stream in bounded batches
  (``fetch_rows`` rows per frame), never as one giant frame;
* ``begin`` / ``commit`` / ``rollback`` — one
  :class:`~repro.db.Transaction` per connection, spanning round trips;
* ``metrics`` — proxies :meth:`Database.metrics` plus the slow-query
  log, so operators can inspect a remote server without shell access.

Robustness is part of the subsystem: :meth:`stop` drains in-flight
statements, stops the compactor, checkpoints (via ``Database.close``)
and only then returns; an idle-session reaper closes connections that
exceed ``idle_timeout`` (rolling back their transaction); per-connection
frame-size limits bound both directions; and ``server.*`` metrics are
registered in the database's registry (and therefore the global one).
:meth:`kill` abandons everything without any of that — the crash
harness for recovery tests.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.errors import (
    AuthenticationError,
    CodsError,
    NetworkError,
    ProtocolError,
    TransactionError,
)
from repro.server.protocol import (
    DEFAULT_FETCH_ROWS,
    DEFAULT_MAX_FRAME,
    PREAMBLE,
    PREAMBLE_SIZE,
    VERSION,
    check_preamble,
    decode_rows,
    encode_rows,
    error_payload,
    read_frame,
    recv_exactly,
    write_frame,
)
from repro.smo.ops import SchemaModificationOperator

#: Hard per-request ceiling on rows per fetch frame, whatever the
#: client asks for.
MAX_FETCH_ROWS = 10_000

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7437


class _Connection:
    """Server-side per-connection state: the socket, one session, at
    most one open transaction, and the streaming cursors."""

    __slots__ = (
        "sock", "reader", "address", "session", "transaction", "cursors",
        "next_cursor", "last_active", "in_flight", "authenticated",
        "closed", "thread", "lock",
    )

    def __init__(self, sock, address, session):
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.address = address
        self.session = session
        self.transaction = None
        self.cursors: dict[int, dict] = {}
        self.next_cursor = 1
        self.last_active = time.monotonic()
        self.in_flight = False
        self.authenticated = False
        self.closed = False
        self.thread: threading.Thread | None = None
        self.lock = threading.Lock()

    def new_cursor(self, rows: list, position: int) -> int:
        cursor_id = self.next_cursor
        self.next_cursor += 1
        self.cursors[cursor_id] = {"rows": rows, "pos": position}
        return cursor_id


class CodsServer:
    """A network front end over one :class:`~repro.db.Database`.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` is the
    bound ``(host, port)`` either way.  ``auth_token`` (optional) must
    be echoed by every client's ``hello``.  ``idle_timeout`` (seconds,
    optional) arms the reaper.  ``close_database`` controls whether
    :meth:`stop` closes the database too (the ``__main__`` entry point
    owns its database; embedding tests may not want that).
    """

    def __init__(
        self,
        database,
        host: str = DEFAULT_HOST,
        port: int = 0,
        *,
        auth_token: str | None = None,
        idle_timeout: float | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        fetch_rows: int = DEFAULT_FETCH_ROWS,
        close_database: bool = True,
    ):
        self.database = database
        self.auth_token = auth_token
        self.idle_timeout = idle_timeout
        self.max_frame = max_frame
        self.fetch_rows = max(1, min(int(fetch_rows), MAX_FETCH_ROWS))
        self.close_database = close_database
        self._connections: set[_Connection] = set()
        self._lock = threading.Lock()
        self._stopping = False
        self._stopped = False
        self._stop_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._reaper_thread: threading.Thread | None = None

        metrics = database.adapter.metrics
        self._connections_accepted = metrics.counter(
            "server.connections_accepted"
        )
        self._requests = metrics.counter("server.requests")
        self._errors = metrics.counter("server.errors")
        self._bytes_in = metrics.counter("server.bytes_in")
        self._bytes_out = metrics.counter("server.bytes_out")
        self._sessions_reaped = metrics.counter("server.sessions_reaped")
        metrics.gauge(
            "server.connections_active", lambda: len(self._connections)
        )

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

        self._commands = {
            "hello": self._cmd_hello,
            "execute": self._cmd_execute,
            "executemany": self._cmd_executemany,
            "fetch": self._cmd_fetch,
            "close_cursor": self._cmd_close_cursor,
            "begin": self._cmd_begin,
            "commit": self._cmd_commit,
            "rollback": self._cmd_rollback,
            "metrics": self._cmd_metrics,
            "goodbye": self._cmd_goodbye,
        }

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "CodsServer":
        """Start the accept loop (and the reaper, when armed)."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cods-server-accept", daemon=True
        )
        self._accept_thread.start()
        if self.idle_timeout is not None:
            self._reaper_thread = threading.Thread(
                target=self._reap_loop, name="cods-server-reaper",
                daemon=True,
            )
            self._reaper_thread.start()
        return self

    def serve_forever(self) -> None:
        """Start and block until :meth:`stop` (or KeyboardInterrupt,
        which stops gracefully)."""
        self.start()
        try:
            while not self._stop_event.wait(0.2):
                pass
        except KeyboardInterrupt:
            self.stop()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, let in-flight statements
        finish (up to ``drain_timeout``), close every connection
        (rolling back open transactions), stop the compactor, then —
        when the server owns its database — close it, which checkpoints
        a durable catalog.  Idempotent and thread-safe."""
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        self._stopping = True
        self._close_listener()
        deadline = time.monotonic() + drain_timeout
        while (
            any(conn.in_flight for conn in list(self._connections))
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        for conn in list(self._connections):
            self._close_connection(conn)
        self._stop_event.set()
        self._join_threads()
        self.database.stop_compactor()
        if self.close_database and not self.database.closed:
            self.database.close()

    def kill(self) -> None:
        """Abandon the server as a process kill would: no drain, no
        rollbacks, no checkpoint, database left un-closed.  Only the
        threads are stopped (a real SIGKILL stops them too).  For
        crash-recovery tests."""
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        self._stopping = True
        self._close_listener()
        for conn in list(self._connections):
            conn.closed = True
            self._discard(conn)
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        self._stop_event.set()
        self._join_threads()
        # A real kill stops the compactor thread without a checkpoint;
        # stop_compactor does exactly that (it never touches disk).
        self.database.stop_compactor()

    def _close_listener(self) -> None:
        # shutdown() first: close() alone does not wake a thread
        # blocked in accept(), so _join_threads would wait out its
        # full timeout on the accept loop.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def _join_threads(self) -> None:
        if self._accept_thread is not None:
            self._accept_thread.join(5.0)
        if self._reaper_thread is not None:
            self._reaper_thread.join(5.0)
        for conn in list(self._connections):
            if conn.thread is not None:
                conn.thread.join(5.0)

    def __enter__(self) -> "CodsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- the accept loop and the reaper ---------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, address = self._listener.accept()
            except OSError:
                break  # listener closed by stop()/kill()
            # Frames are small and strictly request/response: without
            # TCP_NODELAY, Nagle + delayed ACK can stall concurrent
            # clients for whole ACK-timer ticks.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._connections_accepted.inc()
            conn = _Connection(sock, address, self.database.session())
            with self._lock:
                self._connections.add(conn)
            conn.thread = threading.Thread(
                target=self._handle,
                args=(conn,),
                name=f"cods-client-{address[0]}:{address[1]}",
                daemon=True,
            )
            conn.thread.start()

    def _reap_loop(self) -> None:
        interval = min(max(self.idle_timeout / 4, 0.01), 0.5)
        while not self._stop_event.wait(interval):
            now = time.monotonic()
            for conn in list(self._connections):
                if conn.closed or conn.in_flight:
                    continue
                if now - conn.last_active > self.idle_timeout:
                    self._sessions_reaped.inc()
                    self._close_connection(conn)

    def _discard(self, conn: _Connection) -> None:
        with self._lock:
            self._connections.discard(conn)

    def _close_connection(self, conn: _Connection) -> None:
        """Tear one connection down (idempotent): roll back its open
        transaction, close its session and its socket.  The handler
        thread blocked in ``read`` wakes with a transport error and
        exits through here again, harmlessly."""
        with conn.lock:
            if conn.closed:
                return
            conn.closed = True
        self._discard(conn)
        # shutdown() — not close() — actually terminates the stream:
        # the makefile() reader holds an io-ref that makes sock.close()
        # defer the real fd close, and shutdown is also what wakes a
        # handler thread blocked in recv.
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if conn.transaction is not None:
            try:
                conn.transaction.rollback()
            except CodsError:
                pass  # already terminal
            conn.transaction = None
        conn.cursors.clear()
        conn.session.close()
        try:
            conn.reader.close()
        except OSError:
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- one connection's conversation ----------------------------------

    def _handle(self, conn: _Connection) -> None:
        try:
            check_preamble(
                recv_exactly(conn.reader, PREAMBLE_SIZE, "client"), "client"
            )
            conn.sock.sendall(PREAMBLE)
            while not self._stopping:
                payload, nbytes = read_frame(
                    conn.reader, self.max_frame, "client"
                )
                self._bytes_in.inc(nbytes)
                self._requests.inc()
                conn.in_flight = True
                try:
                    response = self._dispatch(conn, payload)
                except CodsError as exc:
                    self._errors.inc()
                    response = error_payload(exc)
                finally:
                    conn.in_flight = False
                    conn.last_active = time.monotonic()
                self._bytes_out.inc(
                    write_frame(conn.sock, response, self.max_frame, "client")
                )
                if payload.get("cmd") == "goodbye":
                    break
        except (NetworkError, ProtocolError, OSError):
            pass  # peer hung up, was reaped, or sent garbage
        finally:
            self._close_connection(conn)

    def _dispatch(self, conn: _Connection, payload: dict) -> dict:
        cmd = payload.get("cmd")
        handler = self._commands.get(cmd)
        if handler is None:
            raise ProtocolError(f"unknown command {cmd!r}")
        if not conn.authenticated and cmd != "hello":
            raise ProtocolError("the first command must be 'hello'")
        return handler(conn, payload)

    # -- commands -------------------------------------------------------

    def _cmd_hello(self, conn: _Connection, payload: dict) -> dict:
        if self.auth_token is not None:
            if payload.get("token") != self.auth_token:
                raise AuthenticationError("bad or missing auth token")
        conn.authenticated = True
        return {
            "ok": True,
            "server": "cods",
            "protocol": VERSION,
            "tables": self.database.tables(),
        }

    @staticmethod
    def _scope(conn: _Connection):
        """The connection's open transaction — pinned reads and overlay
        writes, so read-your-writes holds across round trips — else its
        session."""
        return conn.transaction if conn.transaction is not None else conn.session

    def _rows_response(self, conn: _Connection, columns, rows: list) -> dict:
        """A result set: the first batch inline, a cursor for the rest.
        The server holds the remainder and streams it ``fetch_rows``
        per frame — the wire never carries the whole set at once."""
        batch = rows[: self.fetch_rows]
        done = len(batch) == len(rows)
        response = {
            "ok": True,
            "kind": "rows",
            "columns": list(columns),
            "total": len(rows),
            "rows": encode_rows(batch),
            "done": done,
        }
        if not done:
            response["cursor"] = conn.new_cursor(rows, len(batch))
        return response

    def _cmd_execute(self, conn: _Connection, payload: dict) -> dict:
        sql, params = payload.get("sql"), payload.get("params")
        if not isinstance(sql, str):
            raise ProtocolError("'execute' needs a string 'sql' field")
        if params is not None:
            params = tuple(decode_rows([params])[0])
        # Either scope parses the text once and hands back the node it
        # routed on.
        scope = self._scope(conn)
        node, result = scope.run(sql, params)
        if isinstance(node, SchemaModificationOperator):
            return {"ok": True, "kind": "status", "summary": result.summary()}
        columns = scope.result_columns(node)
        if columns is not None:
            return self._rows_response(conn, columns, result)
        if isinstance(result, int):
            return {"ok": True, "kind": "count", "count": result}
        return {"ok": True, "kind": "none"}

    def _cmd_executemany(self, conn: _Connection, payload: dict) -> dict:
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("'executemany' needs a string 'sql' field")
        param_rows = [
            tuple(row) for row in decode_rows(payload.get("param_rows") or [])
        ]
        count = self._scope(conn).executemany(sql, param_rows)
        return {"ok": True, "kind": "count", "count": count}

    def _cmd_fetch(self, conn: _Connection, payload: dict) -> dict:
        state = conn.cursors.get(payload.get("cursor"))
        if state is None:
            raise ProtocolError("unknown or exhausted cursor")
        n = payload.get("n", self.fetch_rows)
        if not isinstance(n, int) or n < 1:
            raise ProtocolError("'fetch' needs a positive integer 'n'")
        n = min(n, MAX_FETCH_ROWS)
        rows, position = state["rows"], state["pos"]
        batch = rows[position:position + n]
        state["pos"] = position + len(batch)
        done = state["pos"] >= len(rows)
        if done:
            conn.cursors.pop(payload.get("cursor"), None)
        return {"ok": True, "rows": encode_rows(batch), "done": done}

    def _cmd_close_cursor(self, conn: _Connection, payload: dict) -> dict:
        conn.cursors.pop(payload.get("cursor"), None)
        return {"ok": True}

    def _cmd_begin(self, conn: _Connection, payload: dict) -> dict:
        if conn.transaction is not None:
            raise TransactionError(
                "a transaction is already open on this connection"
            )
        read_only = bool(payload.get("read_only"))
        conn.transaction = self.database.transaction(
            read_only=read_only
        ).begin()
        return {
            "ok": True,
            "read_only": read_only,
            "tables_pinned": len(conn.transaction.epoch_vector),
        }

    def _cmd_commit(self, conn: _Connection, payload: dict) -> dict:
        transaction = conn.transaction
        if transaction is None:
            raise TransactionError("no transaction is open")
        # Commit ends the scope either way — committed, or rolled back
        # by a conflict — so the connection is free to begin afresh.
        conn.transaction = None
        return {"ok": True, "count": transaction.commit()}

    def _cmd_rollback(self, conn: _Connection, payload: dict) -> dict:
        transaction = conn.transaction
        if transaction is None:
            raise TransactionError("no transaction is open")
        conn.transaction = None
        return {"ok": True, "discarded": transaction.rollback()}

    def _cmd_metrics(self, conn: _Connection, payload: dict) -> dict:
        fmt = payload.get("fmt")
        return {
            "ok": True,
            "metrics": self.database.metrics(fmt),
            "slow_queries": list(self.database.slow_query_log),
        }

    def _cmd_goodbye(self, conn: _Connection, payload: dict) -> dict:
        return {"ok": True}
