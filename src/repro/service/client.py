"""The blocking client behind ``repro submit/status/results/shutdown``.

A :class:`ServiceClient` is one socket connection speaking the line
protocol synchronously: send a frame, read the response.  Event streams
(``submit --watch`` / ``watch``) are consumed through :meth:`events`,
which yields typed :mod:`repro.obs.events` objects — ready to feed
straight into ``ProgressPrinter.render`` — until the job-finished frame.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.obs.events import ProgressEvent, event_from_dict
from repro.scenarios.spec import ScenarioSpec
from repro.service.protocol import decode_frame, encode_frame
from repro.service.server import DEFAULT_SOCKET
from repro.utils.validation import ConfigurationError, ReproError

__all__ = ["ServiceClient", "ServiceError", "connect_with_retry"]


class ServiceError(ReproError):
    """The server answered with a typed error frame."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class ServiceClient:
    """One blocking protocol connection to a running daemon."""

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> None:
        if host is not None:
            if port is None:
                raise ConfigurationError("a TCP service address needs both host and port")
            self._sock = socket.create_connection((host, port), timeout=timeout)
        else:
            path = socket_path if socket_path is not None else DEFAULT_SOCKET
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self._sock.settimeout(timeout)
                self._sock.connect(path)
            except BaseException:
                self._sock.close()
                raise
        self._file = self._sock.makefile("rwb")
        #: The final job-finished frame of the last consumed event stream.
        self.finished: Optional[Dict[str, Any]] = None

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _read_frame(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ServiceError("protocol", "connection closed by the server")
        frame = decode_frame(line)
        if frame.get("ok") is False:
            error = frame.get("error") or {}
            raise ServiceError(
                str(error.get("kind", "internal")),
                str(error.get("message", "unspecified error")),
            )
        return frame

    def request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame and return the (ok) response frame."""
        self._file.write(encode_frame(frame))
        self._file.flush()
        return self._read_frame()

    # -- ops ---------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def submit(
        self,
        specs: Sequence[Union[ScenarioSpec, Dict[str, Any]]],
        *,
        watch: bool = False,
    ) -> Dict[str, Any]:
        """Submit a spec batch; with ``watch`` the event stream follows —
        consume it with :meth:`events` before sending anything else."""
        payload = [
            spec.to_dict() if isinstance(spec, ScenarioSpec) else dict(spec)
            for spec in specs
        ]
        return self.request({"op": "submit", "specs": payload, "watch": bool(watch)})

    def events(self) -> Iterator[ProgressEvent]:
        """Yield the pending event stream until its job-finished frame.

        The finish frame lands in :attr:`finished`; a failed job raises
        :class:`ServiceError` after the stream ends.
        """
        self.finished = None
        while True:
            frame = self._read_frame()
            op = frame.get("op")
            if op == "event":
                yield event_from_dict(frame["data"])
            elif op == "job-finished":
                self.finished = frame
                if frame.get("state") != "done":
                    raise ServiceError(
                        "internal",
                        f"job {frame.get('job')} failed: {frame.get('error')}",
                    )
                return
            else:
                raise ServiceError("protocol", f"unexpected frame in stream: {frame!r}")

    def watch(self, job_id: str) -> Iterator[ProgressEvent]:
        """Attach to a job: replay its past events, then follow it live."""
        self.request({"op": "watch", "job": job_id})
        return self.events()

    def status(self, job_id: Optional[str] = None) -> List[Dict[str, Any]]:
        frame: Dict[str, Any] = {"op": "status"}
        if job_id is not None:
            frame["job"] = job_id
        return self.request(frame)["jobs"]

    def results(self, job_id: str) -> List[Dict[str, Any]]:
        """The job's records in plan order (the job must be done)."""
        return self.request({"op": "results", "job": job_id})["records"]

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain and exit."""
        return self.request({"op": "shutdown"})


def connect_with_retry(
    *,
    socket_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    deadline: float = 10.0,
    interval: float = 0.05,
    timeout: Optional[float] = None,
) -> ServiceClient:
    """Connect to a daemon that may still be starting up."""
    stop = time.monotonic() + deadline
    while True:
        try:
            return ServiceClient(
                socket_path=socket_path, host=host, port=port, timeout=timeout
            )
        except OSError:
            if time.monotonic() >= stop:
                raise
            time.sleep(interval)
