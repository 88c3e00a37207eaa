"""``python -m repro.service`` — run the fleet kernel service.

Examples::

    # Fill a store ahead of time, then serve it on an explicit port:
    python -m repro.store warm --store .fl_store
    python -m repro.service --store .fl_store --port 8090

The service is read-mostly infrastructure: clients GET entries by
digest and POST freshly compiled ones, which it files as the bytes
they arrive as (record, ``.so``, ``.code``) without running any of
them; a ``.so`` comes from a pusher or from a store warmed ahead of
time.  Point
clients at it with ``FL_SERVICE_URL=http://host:port``,
``fl.configure(service_url=...)``, or ``compile_kernel(...,
remote=...)``.
"""

import argparse
import logging
import sys

from repro.service.server import KernelService
from repro.store import KernelStore


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a kernel store to a fleet over HTTP.")
    parser.add_argument("--store", required=True,
                        help="kernel-store directory to serve")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8090,
                        help="bind port (default 8090; 0 = ephemeral)")
    parser.add_argument("--max-bytes", type=int, default=None,
                        help="store size budget (LRU eviction past it)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    store = KernelStore(args.store, max_bytes=args.max_bytes)
    service = KernelService(store, host=args.host, port=args.port)
    # The last token of this first line is the URL: callers that start
    # the service with --port 0 read it from here.
    print("serving kernel store %s on %s" % (store.root, service.url),
          flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
