"""Stand-in chat-completions endpoint for the `live-loopback` workload.

Serves POST /chat/completions over HTTP/1.1 with keep-alive on 127.0.0.1
only. The answer to each request is looked up by the sha256 of its user
prompt in a JSON file mapping prompt hashes to answer texts. Each answer
is sent after a seeded delay (lognormal, median 20 ms, capped at 200 ms)
drawn in arrival order. No faults are injected.

Protocol with the parent process: the first stdout line is `port <n>`.
Each stdin line `stats` is answered with one JSON line of counters
(requests, connections accepted, request body bytes, service time);
`reset` zeroes them; end of stdin shuts the server down.

    python3 perfbench/endpoint.py --seed 1 --answers answers.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_MEDIAN_S = 0.020
DELAY_SIGMA = 0.5
DELAY_CAP_S = 0.200


class Counters:
    def __init__(self, seed: int):
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self.reset()

    def reset(self):
        with self._lock:
            self.requests = 0
            self.connections = 0
            self.body_bytes = 0
            self.service_s = 0.0
            self.unanswered = 0

    def connection(self):
        with self._lock:
            self.connections += 1

    def arrival(self, body_bytes: int) -> float:
        """Count one request and draw its delay, in arrival order."""
        with self._lock:
            self.requests += 1
            self.body_bytes += body_bytes
            delay = self._rng.lognormvariate(math.log(DELAY_MEDIAN_S), DELAY_SIGMA)
        return min(delay, DELAY_CAP_S)

    def served(self, seconds: float, answered: bool):
        with self._lock:
            self.service_s += seconds
            self.unanswered += not answered

    def snapshot(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "connections": self.connections,
                    "bodyBytes": self.body_bytes,
                    "serviceMs": self.service_s * 1000.0,
                    "unanswered": self.unanswered}


def make_handler(answers: dict, counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            counters.connection()

        def log_message(self, format, *args):
            pass

        def _reply(self, status: int, payload: dict):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()

        def do_POST(self):
            start = time.perf_counter()
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            delay = counters.arrival(length)
            if self.path != "/chat/completions":
                self._reply(404, {"error": f"no route {self.path}"})
                counters.served(time.perf_counter() - start, False)
                return
            messages = json.loads(body)["messages"]
            prompt = next(m["content"] for m in messages if m["role"] == "user")
            answer = answers.get(hashlib.sha256(prompt.encode("utf-8")).hexdigest())
            time.sleep(delay)
            if answer is None:
                self._reply(404, {"error": "unknown prompt"})
            else:
                self._reply(200, {"choices": [{"index": 0, "message": {
                    "role": "assistant", "content": answer}}]})
            counters.served(time.perf_counter() - start, answer is not None)

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--answers", required=True,
                        help="JSON object: prompt sha256 -> answer text")
    args = parser.parse_args()
    with open(args.answers, encoding="utf-8") as fh:
        answers = json.load(fh)
    counters = Counters(args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(answers, counters))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(counters.snapshot()), flush=True)
            elif command == "reset":
                counters.reset()
                print("{}", flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


if __name__ == "__main__":
    main()
