#!/usr/bin/env python3
"""Minimal framed-JSON client for aeetes_server (tools/check.sh serve-smoke).

Speaks the DESIGN.md §14 wire protocol: each request and response is a
4-byte little-endian length prefix followed by a JSON payload. Every
positional argument is sent as one request on a single connection (the
protocol answers in order), and each response is printed as one line of
JSON on stdout. Exits non-zero if any response fails to arrive, fails to
parse, or carries "ok": false (unless --allow-errors).

Live-update verbs ride the same one-liner shape:
  upsert_entities / remove_entities take {"collection": ..., "entities":
  [...]} and apply immediately; compact schedules a background rebuild and
  answers with the target_version the swap will publish. Because the swap
  is asynchronous, --wait-version NAME=V polls {"verb":"list"} (after the
  positional requests) until collection NAME reaches version V or
  --timeout expires.

Usage:
  serve_client.py --port 7071 '{"verb":"healthz"}'
  serve_client.py --port-file /tmp/port '{"verb":"list"}' '{"verb":"metrics"}'
  serve_client.py --port 7071 \
      '{"verb":"upsert_entities","collection":"c","entities":["acme corp"]}' \
      '{"verb":"compact","collection":"c"}' --wait-version c=2

--reset N plays a peer that goes away mid-conversation: it sends the
requests N times back to back without reading a single response, waits
briefly so responses pile up toward it, then closes with SO_LINGER 0 so
the server sees a connection reset. It prints nothing and exits 0; the
caller checks that the server is still serving afterwards.

--half-close plays a peer that pipelines every request, then shuts down
its write side (shutdown(SHUT_WR)) and reads until the server closes:
each request must still get its response, printed as above.
"""
import argparse
import json
import socket
import struct
import sys
import time

HEADER = struct.Struct("<I")


def read_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed the connection mid-frame")
        buf += chunk
    return buf


def call(sock: socket.socket, payload: str) -> dict:
    sock.sendall(frame(payload))
    (length,) = HEADER.unpack(read_exact(sock, HEADER.size))
    return json.loads(read_exact(sock, length).decode("utf-8"))


def frame(payload: str) -> bytes:
    raw = payload.encode("utf-8")
    return HEADER.pack(len(raw)) + raw


def reset_after_send(sock: socket.socket, requests, times: int) -> None:
    sock.sendall(b"".join(frame(r) for r in requests) * times)
    time.sleep(0.2)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))


def half_close(sock: socket.socket, requests) -> list:
    sock.sendall(b"".join(frame(r) for r in requests))
    sock.shutdown(socket.SHUT_WR)
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    responses = []
    while len(data) >= HEADER.size:
        (length,) = HEADER.unpack_from(data)
        if len(data) < HEADER.size + length:
            break
        payload = data[HEADER.size:HEADER.size + length]
        responses.append(json.loads(payload.decode("utf-8")))
        data = data[HEADER.size + length:]
    return responses


def wait_version(sock: socket.socket, spec: str, deadline: float) -> bool:
    name, _, version = spec.rpartition("=")
    if not name:
        raise ValueError(f"--wait-version wants NAME=V, got {spec!r}")
    target = int(version)
    while True:
        response = call(sock, '{"verb":"list"}')
        for collection in response.get("collections", []):
            if (collection.get("name") == name
                    and collection.get("version", 0) >= target):
                print(json.dumps(collection, sort_keys=True))
                return True
        if time.monotonic() >= deadline:
            print(f"serve_client: {name} never reached version {target}",
                  file=sys.stderr)
            return False
        time.sleep(0.05)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int)
    parser.add_argument("--port-file", help="file holding the port number "
                        "(as written by aeetes_server --port-file)")
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--allow-errors", action="store_true",
                        help='do not exit non-zero on "ok": false responses')
    parser.add_argument("--wait-version", metavar="NAME=V",
                        help="after the requests, poll list until "
                        "collection NAME publishes version >= V")
    parser.add_argument("--reset", type=int, default=0, metavar="N",
                        help="send the requests N times without reading, "
                        "then reset the connection (see above)")
    parser.add_argument("--half-close", action="store_true",
                        help="pipeline the requests, shut down the write "
                        "side, then read every response (see above)")
    parser.add_argument("requests", nargs="*",
                        help="JSON request payloads, sent in order")
    args = parser.parse_args()
    if not args.requests and not args.wait_version:
        parser.error("nothing to do: no requests and no --wait-version")

    if args.port is None:
        if not args.port_file:
            parser.error("one of --port / --port-file is required")
        with open(args.port_file, encoding="utf-8") as f:
            args.port = int(f.read().strip())

    if args.reset > 0:
        with socket.create_connection((args.host, args.port),
                                      timeout=args.timeout) as sock:
            reset_after_send(sock, args.requests, args.reset)
        return 0

    failed = False
    with socket.create_connection((args.host, args.port),
                                  timeout=args.timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if args.half_close:
            responses = half_close(sock, args.requests)
            if len(responses) != len(args.requests):
                print(f"serve_client: {len(responses)} of "
                      f"{len(args.requests)} responses arrived after the "
                      "half-close", file=sys.stderr)
                return 1
        else:
            responses = (call(sock, request) for request in args.requests)
        for response in responses:
            print(json.dumps(response, sort_keys=True))
            if not response.get("ok", False):
                failed = True
        if args.wait_version and not (failed and not args.allow_errors):
            deadline = time.monotonic() + args.timeout
            if not wait_version(sock, args.wait_version, deadline):
                failed = True
    if failed and not args.allow_errors:
        print("serve_client: a response carried ok=false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
