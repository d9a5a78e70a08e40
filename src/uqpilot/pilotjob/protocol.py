"""Newline-delimited JSON control protocol over the manager's Unix socket.

The socket is `pj.sock` in the manager's workdir. It is made mode 0600
and listening before it is linked there, so only the user who started
the manager can connect, and it is removed when the server closes. A
manager killed before it could close leaves the socket behind; the next
server replaces a socket that refuses connections, and refuses one a
manager listens on.

Requests:  {"id": ..., "cmd": "submit"|"status"|"cancel"|"finish",
            "payload": {...}}
Responses: {"id": ..., "ok": true, "data": {...}}
        or {"id": ..., "ok": false, "error": {"code": ..., "message": ...}}

One response per request. `status` without a job name answers the job
counts and the allocation's total, busy and free cores. Unknown
commands answer ok=false with code "unknown-command"; a request or
payload that is not a JSON object, or a malformed job, answers ok=false
with code "parse". `finish` stops submissions and is answered once the
manager has drained; the server, one `select` loop in the manager's thread
(`PilotManager.wait`), serves other clients meanwhile, and then closes.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
from pathlib import Path

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

SOCKET_FILENAME = "pj.sock"

_ERROR_CODES = {
    ValidationError: "validation",
    JobNotFound: "not-found",
    AlreadyTerminal: "already-terminal",
    ParseError: "parse",
}


def _refuses_connections(path: Path) -> bool:
    """True for a socket file no process listens on."""
    if not path.is_socket():
        return False
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        probe.settimeout(1.0)
        try:
            probe.connect(str(path))
        except ConnectionRefusedError:
            return True
        except OSError:     # busy, or not ours to connect to: leave it to bind
            pass
    return False


def _answer(sock: socket.socket, response: dict | None) -> bool:
    """Send `response` unless it is None; whether it was answered."""
    if response is None:
        return False
    try:
        sock.sendall((json.dumps(response) + "\n").encode())
    except OSError:   # the client has gone
        pass
    return True


def _error_doc(req_id, exc: Exception) -> dict:
    code = _ERROR_CODES.get(type(exc), "error")
    return {"id": req_id, "ok": False, "error": {"code": code, "message": str(exc)}}


class ManagerServer:
    """Unix-socket front-end for a PilotManager, at `<workdir>/pj.sock`,
    listening from construction on."""

    def __init__(self, manager: PilotManager):
        self.manager = manager
        self.path = Path(manager.workdir) / SOCKET_FILENAME
        self.report: dict | None = None
        if _refuses_connections(self.path):
            self.path.unlink()
        # bind a name of this process, and link it to pj.sock only once it is
        # 0600 and listening; link, unlike rename, fails rather than replace
        # a live manager's socket
        bound = f"{self.path}.{os.getpid()}"
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._listener.bind(bound)
            try:
                os.chmod(bound, 0o600)
                self._listener.listen()
                os.link(bound, self.path)
            finally:
                os.unlink(bound)
        except OSError as exc:
            self._listener.close()
            raise BindError(f"cannot bind manager socket {self.path}: {exc}") from exc

    def serve_until_finished(self):
        """Answer every client, in this thread, until a finish is answered."""
        clients: dict[socket.socket, bytes] = {}   # connection -> its unended line
        requests: list[tuple[socket.socket, bytes]] = []   # lines to answer: finishes wait
        try:
            while self.report is None:
                for sock in self.manager.wait(fds=[self._listener, *clients])[1]:
                    if sock is self._listener:
                        clients[sock.accept()[0]] = b""
                        continue
                    try:
                        data = sock.recv(65536)
                    except OSError:
                        data = b""
                    *lines, clients[sock] = (clients[sock] + data).split(b"\n")
                    requests += [(sock, line) for line in map(bytes.strip, lines) if line]
                    if not data:
                        del clients[sock]
                        sock.close()
                requests = [(sock, line) for sock, line in requests
                            if not _answer(sock, self.handle_request(line))]
        finally:
            for sock in clients:
                sock.close()
            self._listener.close()
            self.path.unlink()

    def handle_request(self, raw: bytes) -> dict | None:
        """The response to one request line; None to a finish until the
        manager has drained, to be asked again after its next events."""
        try:
            doc = json.loads(raw)
        except ValueError as exc:   # also bytes that are not UTF-8
            return _error_doc(None, ParseError(f"request is not valid JSON: {exc}"))
        if not isinstance(doc, dict):
            return _error_doc(None, ParseError(
                f"request is not a JSON object: {type(doc).__name__}"))
        req_id = doc.get("id")
        cmd = doc.get("cmd")
        payload = doc.get("payload") or {}
        if not isinstance(payload, dict):
            return _error_doc(req_id, ParseError(
                f"payload is not a JSON object: {type(payload).__name__}"))
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
            if cmd == "cancel":
                name = str(payload.get("name", ""))
                self.manager.cancel(name)
                return {
                    "id": req_id,
                    "ok": True,
                    "data": {"name": name, "status": self.manager.job_snapshot(name)["status"]},
                }
            if cmd == "finish":
                if not self.manager.drain(block=False):
                    return None
                self.report = self.manager.report()
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

    def __init__(self, path: str | Path, timeout: float = 600.0):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(str(path))
        except OSError as exc:
            self._sock.close()
            raise ParseError(f"no manager listening at {path}") from exc
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
