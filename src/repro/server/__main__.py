"""``python -m repro.server``: serve a catalog directory over TCP.

    python -m repro.server --data DIR [--host H] [--port P]
        [--durability none|commit|group] [--auth-token T]
        [--idle-timeout S] [--no-compact] [--slow-query S]

Without ``--data`` the server runs an empty in-memory catalog (handy
for demos; nothing persists).  The background compactor runs by
default; shutdown (SIGINT) drains in-flight statements, stops it,
checkpoints and closes the database.
"""

from __future__ import annotations

import argparse

from repro.db import Database
from repro.server.protocol import DEFAULT_FETCH_ROWS, DEFAULT_MAX_FRAME
from repro.server.server import DEFAULT_HOST, DEFAULT_PORT, CodsServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="CODS network server: many clients, one catalog",
    )
    parser.add_argument("--data", default=None,
                        help="catalog directory (default: in-memory)")
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--durability", default="none",
                        choices=("none", "commit", "group"))
    parser.add_argument("--auth-token", default=None,
                        help="require this token in every client hello")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="reap sessions idle this many seconds")
    parser.add_argument("--max-frame", type=int, default=DEFAULT_MAX_FRAME,
                        help="per-connection frame-size limit, bytes")
    parser.add_argument("--fetch-rows", type=int, default=DEFAULT_FETCH_ROWS,
                        help="rows streamed per result frame")
    parser.add_argument("--no-compact", action="store_true",
                        help="do not run the background compactor")
    parser.add_argument("--compact-interval", type=float, default=None,
                        help="compactor sweep interval, seconds")
    parser.add_argument("--slow-query", type=float, default=None,
                        help="log statements at or over this many seconds")
    args = parser.parse_args(argv)

    db = Database(args.data, durability=args.durability)
    if args.slow_query is not None:
        db.slow_query_seconds = args.slow_query
    if not args.no_compact:
        db.start_compactor(interval=args.compact_interval)
    server = CodsServer(
        db,
        args.host,
        args.port,
        auth_token=args.auth_token,
        idle_timeout=args.idle_timeout,
        max_frame=args.max_frame,
        fetch_rows=args.fetch_rows,
    )
    host, port = server.address
    location = args.data if args.data is not None else "memory"
    print(f"cods-server: serving {location!r} on {host}:{port} "
          f"(durability={args.durability})")
    try:
        server.serve_forever()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
