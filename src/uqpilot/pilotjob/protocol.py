"""Newline-delimited JSON control protocol over a local stream socket.

Requests:  {"id": ..., "cmd": "submit"|"status"|"cancel"|"resources"|"finish",
            "payload": {...}}
Responses: {"id": ..., "ok": true, "data": {...}}
        or {"id": ..., "ok": false, "error": {"code": ..., "message": ...}}

One response per request. Unknown commands answer ok=false with code
"unknown-command".
"""

from __future__ import annotations

import itertools
import json
import socket
import socketserver
import threading

from uqpilot.errors import (
    AlreadyTerminal,
    BindError,
    JobNotFound,
    ParseError,
    UqError,
    ValidationError,
)
from uqpilot.pilotjob.jobs import JobSpec
from uqpilot.pilotjob.scheduler import PilotManager

_ERROR_CODES = {
    ValidationError: "validation",
    JobNotFound: "not-found",
    AlreadyTerminal: "already-terminal",
    ParseError: "parse",
}


def _error_doc(req_id, exc: Exception) -> dict:
    code = _ERROR_CODES.get(type(exc), "error")
    return {"id": req_id, "ok": False, "error": {"code": code, "message": str(exc)}}


class ManagerServer:
    """Socket front-end for a PilotManager."""

    def __init__(self, manager: PilotManager, host: str = "127.0.0.1", port: int = 0):
        self.manager = manager
        self._finish_event = threading.Event()
        self.report: dict | None = None
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                while True:
                    line = self.rfile.readline()
                    if not line:
                        return
                    line = line.strip()
                    if not line:
                        continue
                    response = outer.handle_request(line)
                    self.wfile.write((json.dumps(response) + "\n").encode())
                    self.wfile.flush()
                    if response.get("data", {}).get("finished"):
                        return

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        try:
            self._server = Server((host, port), Handler)
        except OSError as exc:
            raise BindError(f"cannot bind manager socket on {host}:{port}: {exc}") from exc
        self.host, self.port = self._server.server_address
        self._thread: threading.Thread | None = None

    def start(self):
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_until_finished(self):
        """Block until a finish command has drained the manager."""
        self.start()
        self._finish_event.wait()
        self._server.shutdown()
        self._server.server_close()

    def stop(self):
        self._server.shutdown()
        self._server.server_close()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def handle_request(self, raw: bytes) -> dict:
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            return _error_doc(None, ParseError(f"request is not valid JSON: {exc}"))
        req_id = doc.get("id")
        cmd = doc.get("cmd")
        payload = doc.get("payload") or {}
        try:
            if cmd == "submit":
                spec = JobSpec.from_json(payload)
                name = self.manager.submit(spec)
                return {"id": req_id, "ok": True, "data": {"name": name}}
            if cmd == "status":
                if payload.get("name"):
                    data = self.manager.job_snapshot(str(payload["name"]))
                else:
                    data = self.manager.status_snapshot()
                return {"id": req_id, "ok": True, "data": data}
            if cmd == "resources":
                return {"id": req_id, "ok": True, "data": self.manager.resources_snapshot()}
            if cmd == "cancel":
                name = str(payload.get("name", ""))
                self.manager.cancel(name)
                return {
                    "id": req_id,
                    "ok": True,
                    "data": {"name": name, "status": self.manager.job_snapshot(name)["status"]},
                }
            if cmd == "finish":
                self.manager.drain()
                self.report = self.manager.report()
                self._finish_event.set()
                summary = {
                    "finished": True,
                    "makespan": self.report["makespan"],
                    "overhead": self.report["overhead"],
                    "jobs": len(self.report["jobs"]),
                }
                return {"id": req_id, "ok": True, "data": summary}
            return {
                "id": req_id,
                "ok": False,
                "error": {"code": "unknown-command", "message": f"unknown command {cmd!r}"},
            }
        except UqError as exc:
            return _error_doc(req_id, exc)


class PjClient:
    """Blocking request/response client for the manager socket.

    `timeout` bounds the connect and each reply except finish's, which
    comes only once the manager has drained, however long that takes.
    """

    def __init__(self, host: str, port: int, timeout: float = 600.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._timeout = timeout
        self._file = self._sock.makefile("rwb")
        self._next_id = itertools.count(1)

    def request(self, cmd: str, payload: dict | None = None) -> dict:
        self._sock.settimeout(None if cmd == "finish" else self._timeout)
        req = {"id": next(self._next_id), "cmd": cmd, "payload": payload or {}}
        self._file.write((json.dumps(req) + "\n").encode())
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ParseError("manager closed the connection")
        return json.loads(line)

    def call(self, cmd: str, payload: dict | None = None) -> dict:
        """request() that raises UqError on ok=false."""
        response = self.request(cmd, payload)
        if not response.get("ok"):
            err = response.get("error", {})
            raise UqError(f"{err.get('code', 'error')}: {err.get('message', '')}")
        return response.get("data", {})

    def close(self):
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
