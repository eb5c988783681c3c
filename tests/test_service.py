"""Tests for the experiment service (``repro.service``).

The in-process tests embed an :class:`ExperimentServer` on a background
thread with ``workers=0`` (inline thread executor), which exercises the
full submit → coalesce → execute → persist → stream path without forking.
The crash-resume test runs the real daemon in a subprocess and SIGKILLs
it mid-run.
"""

from __future__ import annotations

import asyncio
import errno
import gc
import io
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.api import execute_group_payload
from repro.obs.events import (
    CellCached,
    CellCompleted,
    CellStarted,
    ProgressPrinter,
    RunFinished,
)
from repro.results.store import RunStore
from repro.scenarios import ScenarioSpec, run_spec
from repro.service import (
    ExperimentServer,
    ProtocolError,
    ServiceClient,
    connect_with_retry,
    decode_frame,
    encode_frame,
)
from repro.service.client import ServiceError
from repro.service.scheduler import Scheduler, ShuttingDownError
from repro.service.workers import WorkerPool
from repro.utils.validation import ConfigurationError


def sweep_specs(num_nodes=(6, 8), repetitions=2, **overrides):
    """A small vectorizable sweep: one spec per node count."""
    specs = []
    for n in num_nodes:
        fields = dict(
            problem="single-source",
            problem_params={"num_nodes": n, "num_tokens": 4},
            algorithm="flooding",
            algorithm_params={"rounds_per_token": 2},
            adversary="static-random",
            adversary_params={"num_nodes": n},
            seed=11,
            repetitions=repetitions,
            name="service-test",
        )
        fields.update(overrides)
        specs.append(ScenarioSpec(**fields))
    return specs


class ServerHandle:
    """An embedded daemon on a background thread, torn down via shutdown."""

    def __init__(self, tmp_path: Path, **kwargs) -> None:
        self.store = str(tmp_path / "store")
        self.socket_path = str(tmp_path / "service.sock")
        kwargs.setdefault("workers", 0)
        self.server = ExperimentServer(
            self.store,
            socket=self.socket_path,
            stream=io.StringIO(),
            **kwargs,
        )
        self.exit_code = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        self.exit_code = self.server.run()

    def client(self, **kwargs) -> ServiceClient:
        return connect_with_retry(socket_path=self.socket_path, **kwargs)

    def stop(self) -> None:
        if self.thread.is_alive():
            try:
                with self.client() as client:
                    client.shutdown()
            except (OSError, ServiceError):
                pass
        self.thread.join(timeout=30)
        assert not self.thread.is_alive()


@pytest.fixture
def server(tmp_path):
    handle = ServerHandle(tmp_path)
    try:
        yield handle
    finally:
        handle.stop()


class TestProtocol:
    def test_frame_round_trip(self):
        frame = {"op": "ping", "nested": {"a": [1, 2]}}
        encoded = encode_frame(frame)
        assert encoded.endswith(b"\n")
        assert decode_frame(encoded) == frame

    def test_decode_rejects_malformed_frames(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_frame(b"not json\n")
        with pytest.raises(ProtocolError, match="object"):
            decode_frame(b"[1, 2]\n")
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_frame(b"\xff\xfe\n")


class TestClientConnect:
    def test_failed_connect_closes_its_socket(self, tmp_path):
        missing = str(tmp_path / "no-daemon.sock")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                ServiceClient(socket_path=missing)
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]


class TestWorkerPool:
    def test_rejects_negative_and_non_int_workers(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            WorkerPool(-1)
        with pytest.raises(ConfigurationError, match="non-negative"):
            WorkerPool(True)


class TestSubmitRoundTrip:
    def test_submit_stream_results_round_trip(self, server):
        specs = sweep_specs()
        expected = [record for spec in specs for record in run_spec(spec)]
        with server.client() as client:
            ack = client.submit(specs, watch=True)
            assert ack["pending"] == len(expected)
            assert ack["cached"] == 0
            events = list(client.events())
            records = client.results(ack["job"])

        started = [e for e in events if isinstance(e, CellStarted)]
        completed = [e for e in events if isinstance(e, CellCompleted)]
        assert len(started) == len(expected)
        assert len(completed) == len(expected)
        assert isinstance(events[-1], RunFinished)
        assert events[-1].executed == len(expected)
        # The daemon's records are identical to running the specs directly.
        assert records == expected
        # Events stream in plan order.
        assert [e.index for e in started] == sorted(e.index for e in started)

    def test_progress_printer_renders_streamed_events(self, server):
        stream = io.StringIO()  # isatty() is False
        printer = ProgressPrinter(stream, label="submit")
        with server.client() as client:
            client.submit(sweep_specs(num_nodes=(6,)), watch=True)
            for event in client.events():
                printer.render(event)
        output = stream.getvalue()
        assert output.count("\n") == 1
        assert "progress: submit finished" in output

    def test_second_identical_submit_is_fully_cached(self, server):
        specs = sweep_specs()
        with server.client() as client:
            first = client.submit(specs, watch=True)
            list(client.events())
            records_first = client.results(first["job"])

            second = client.submit(specs, watch=True)
            assert second["pending"] == 0
            assert second["cached"] == first["pending"]
            events = list(client.events())
            records_second = client.results(second["job"])

        body = [e for e in events if not isinstance(e, RunFinished)]
        assert body and all(isinstance(e, CellCached) for e in body)
        assert events[-1].executed == 0
        # Byte-identical records: nothing re-executed, nothing re-derived.
        assert json.dumps(records_first) == json.dumps(records_second)

    def test_status_reports_jobs(self, server):
        specs = sweep_specs(num_nodes=(6,))
        with server.client() as client:
            ack = client.submit(specs, watch=True)
            list(client.events())
            jobs = client.status()
            assert [job["job"] for job in jobs] == [ack["job"]]
            only = client.status(ack["job"])[0]
            assert only["state"] == "done"
            assert only["executed"] == ack["pending"]


class GatedPool:
    """A worker pool whose executions block until the test opens the gate."""

    def __init__(self) -> None:
        self.gate = asyncio.Event()
        self.calls = []

    async def run_group(self, payload):
        await self.gate.wait()
        self.calls.append(payload)
        return execute_group_payload(payload)

    @property
    def executed_cells(self) -> int:
        """Physical cells run so far, summed over the group payloads."""
        return sum(len(reps) for _, reps, _, _ in self.calls)

    def shutdown(self, wait: bool = True) -> None:
        pass


class TestSchedulerCoalescing:
    def test_second_job_coalesces_onto_in_flight_executions(self, tmp_path):
        async def scenario():
            pool = GatedPool()
            scheduler = Scheduler(str(tmp_path / "store"), pool)
            specs = sweep_specs()
            # Both submissions land before any execution resolves (claims
            # are taken synchronously at submit time), so every cell of the
            # second job must attach to the first job's executions.
            job_a = scheduler.submit(specs)
            job_b = scheduler.submit(specs)
            pool.gate.set()
            await scheduler.drain()
            return pool, job_a, job_b

        pool, job_a, job_b = asyncio.run(scenario())
        cells = len(job_a.plan.cells)
        assert job_a.state == "done" and job_b.state == "done"
        assert job_a.executed == cells
        assert job_b.executed == 0
        assert job_b.coalesced == cells
        # Each physical cell ran exactly once (vectorizable specs travel as
        # one group payload per spec, so call count < cell count).
        assert pool.executed_cells == cells
        assert len(pool.calls) == len(job_a.plan.specs())
        assert json.dumps(job_a.records) == json.dumps(job_b.records)
        # The coalesced job streams CellCached for every cell.
        kinds = [event["event"] for event in job_b.events]
        assert kinds == ["cell_cached"] * cells + ["run_finished"]

    def test_non_vectorizable_cells_travel_one_per_payload_on_bitset(self, tmp_path):
        specs = sweep_specs(
            algorithm="single-source",
            algorithm_params={},
            adversary="churn",
            adversary_params={"changes_per_round": 2},
            repetitions=3,
        )

        async def scenario():
            pool = GatedPool()
            scheduler = Scheduler(str(tmp_path / "store"), pool)
            job = scheduler.submit(specs)
            pool.gate.set()
            await scheduler.drain()
            return pool, job

        pool, job = asyncio.run(scenario())
        cells = len(job.plan.cells)
        assert job.state == "done" and job.executed == cells
        # No batch program: every cell is its own one-repetition payload.
        assert len(pool.calls) == cells
        assert all(len(reps) == 1 for _, reps, _, _ in pool.calls)
        completed = [e for e in job.events if e["event"] == "cell_completed"]
        assert [e["backend"] for e in completed] == ["bitset"] * cells
        expected = [record for spec in specs for record in run_spec(spec)]
        assert job.records == expected

    def test_failed_store_write_fails_the_job_and_releases_its_cells(self, tmp_path):
        specs = sweep_specs()

        def full_disk(records, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        async def scenario():
            pool = GatedPool()
            pool.gate.set()
            scheduler = Scheduler(str(tmp_path / "store"), pool)
            add = scheduler.store.add
            scheduler.store.add = full_disk
            job = scheduler.submit(specs)
            # Graceful shutdown must not hang on cells whose record never
            # reached the store.
            await asyncio.wait_for(scheduler.drain(), 5)
            claimed = len(scheduler._executions)
            scheduler.store.add = add
            scheduler.draining = False
            retry = scheduler.submit(specs)
            await asyncio.wait_for(scheduler.drain(), 60)
            return job, claimed, retry

        job, claimed, retry = asyncio.run(scenario())
        assert job.state == "failed"
        assert "OSError" in job.error
        assert claimed == 0
        # Nothing was stored, so the resubmission executes every cell.
        cells = len(retry.plan.cells)
        assert retry.plan.describe()["pending"] == cells
        assert retry.state == "done" and retry.executed == cells
        assert len(RunStore(str(tmp_path / "store")).records()) == cells

    def test_draining_scheduler_rejects_submissions(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(str(tmp_path / "store"), GatedPool())
            scheduler.draining = True
            with pytest.raises(ShuttingDownError):
                scheduler.submit(sweep_specs())

        asyncio.run(scenario())


class TestGracefulShutdown:
    def test_shutdown_drains_inflight_jobs_and_exits_zero(self, tmp_path):
        handle = ServerHandle(tmp_path)
        specs = sweep_specs()
        try:
            with handle.client() as client:
                ack = client.submit(specs)  # no watch: returns immediately
                reply = client.shutdown()
                assert reply["ok"] is True
        finally:
            handle.thread.join(timeout=30)
        assert not handle.thread.is_alive()
        assert handle.exit_code == 0
        # The in-flight job drained: every cell's record was persisted.
        store = RunStore(handle.store)
        assert len(store.records()) == ack["pending"]
        assert not os.path.exists(handle.socket_path)


class TestProtocolErrors:
    def test_errors_are_typed_and_keep_the_connection_open(self, server):
        with server.client() as client:
            raw = client._file

            def roundtrip(line: bytes):
                raw.write(line)
                raw.flush()
                return decode_frame(raw.readline())

            garbage = roundtrip(b"this is not json\n")
            assert garbage["ok"] is False
            assert garbage["error"]["kind"] == "protocol"

            unknown_op = roundtrip(encode_frame({"op": "frobnicate"}))
            assert unknown_op["error"]["kind"] == "protocol"

            unknown_job = roundtrip(encode_frame({"op": "results", "job": "job-9999"}))
            assert unknown_job["error"]["kind"] == "unknown-job"

            bad_submit = roundtrip(encode_frame({"op": "submit", "specs": []}))
            assert bad_submit["error"]["kind"] == "protocol"

            bad_spec = roundtrip(
                encode_frame({"op": "submit", "specs": [{"problem": "no-such"}]})
            )
            assert bad_spec["error"]["kind"] == "protocol"
            assert "invalid spec" in bad_spec["error"]["message"]

            # The connection survived all five errors.
            assert client.ping()["ok"] is True

    def test_results_before_done_is_a_configuration_error(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.results("job-0001")
            assert excinfo.value.kind == "unknown-job"


class TestCrashResume:
    NODES = (24, 28, 32, 36)

    def _start_daemon(self, store, sock):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        # A session of its own: the daemon's spawn worker and multiprocessing
        # resource tracker join its process group, so teardown can kill them
        # all even after the daemon itself was SIGKILLed.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", store, "--socket", sock, "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        line = process.stdout.readline()
        assert "listening" in line, line
        return process

    @staticmethod
    def _kill_process_group(process, timeout=30.0):
        """SIGKILL every process left in the daemon's group, reap the
        daemon, and wait until the group is gone."""
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=timeout)
        process.stdout.close()
        deadline = time.monotonic() + timeout
        while True:
            try:
                os.killpg(process.pid, 0)
            except ProcessLookupError:
                return
            assert time.monotonic() < deadline, "the daemon's process group outlived SIGKILL"
            time.sleep(0.05)

    def test_sigkill_restart_resubmit_executes_only_missing_cells(self, tmp_path):
        store = str(tmp_path / "store")
        sock = str(tmp_path / "daemon.sock")
        # Larger cells (k=12) so the kill lands mid-run.
        specs = [
            ScenarioSpec(
                problem="single-source",
                problem_params={"num_nodes": n, "num_tokens": 12},
                algorithm="flooding",
                algorithm_params={"rounds_per_token": 2},
                adversary="static-random",
                adversary_params={"num_nodes": n},
                seed=11,
                repetitions=2,
                name="service-crash-test",
            )
            for n in self.NODES
        ]
        total = sum(spec.repetitions for spec in specs)

        daemon = self._start_daemon(store, sock)
        try:
            client = connect_with_retry(socket_path=sock, timeout=120)
            client.submit(specs, watch=True)
            # Kill -9 as soon as the first record lands.
            for event in client.events():
                if isinstance(event, CellCompleted):
                    daemon.send_signal(signal.SIGKILL)
                    break
            with pytest.raises((ServiceError, OSError)):
                for _ in client.events():
                    pass
            client.close()
        finally:
            self._kill_process_group(daemon)

        persisted = len(RunStore(store).records())
        assert 1 <= persisted < total
        assert os.path.exists(sock)  # kill -9 left the socket behind

        daemon = self._start_daemon(store, sock)  # unlinks the stale socket
        try:
            with connect_with_retry(socket_path=sock, timeout=120) as client:
                ack = client.submit(specs, watch=True)
                assert ack["cached"] == persisted
                assert ack["pending"] == total - persisted
                events = list(client.events())
                records = client.results(ack["job"])
            started = [e for e in events if isinstance(e, CellStarted)]
            # Only the unfinished cells executed; nothing ran twice.
            assert len(started) == total - persisted
            assert len(records) == total
            # Every record is a full result row, whether or not the round
            # cap let the cell complete dissemination.
            assert all("completed" in record for record in records)
        finally:
            try:
                with ServiceClient(socket_path=sock) as client:
                    client.shutdown()
                daemon.wait(timeout=30)
            finally:
                returncode = daemon.poll()
                self._kill_process_group(daemon)
            assert returncode == 0


def _append_records_worker(store_path, lines, start):
    store = RunStore(store_path)
    for offset, line in enumerate(lines):
        record = json.loads(line)
        record["repetition"] = start + offset
        # One add per record: maximal manifest churn and interleaving.
        store.add([record], replace=True)


class TestStoreMultiWriter:
    def test_two_processes_append_to_one_shard_without_corruption(self, tmp_path):
        store_path = str(tmp_path / "store")
        [spec] = sweep_specs(num_nodes=(6,), repetitions=1)
        template = json.dumps(run_spec(spec)[0])
        per_writer = 20
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(
                target=_append_records_worker,
                args=(store_path, [template] * per_writer, start),
            )
            for start in (0, per_writer)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        # Reopen: every line parses, every identity is present exactly once.
        records = RunStore(store_path).records()
        assert sorted(record.repetition for record in records) == list(
            range(2 * per_writer)
        )

    def test_concurrent_appends_with_live_index_sync_converge(self, tmp_path):
        """Two processes append while a third syncs the warehouse index:
        whatever the interleaving, a final sync must land on exactly the
        rows a cold rebuild derives from the shards."""
        pytest.importorskip("sqlite3")
        from repro.warehouse import WarehouseIndex, rebuild_index

        store_path = str(tmp_path / "store")
        RunStore(store_path)  # writers and the syncer race on a live store
        index = WarehouseIndex(store_path)
        [spec] = sweep_specs(num_nodes=(6,), repetitions=1)
        template = json.dumps(run_spec(spec)[0])
        per_writer = 20
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(
                target=_append_records_worker,
                args=(store_path, [template] * per_writer, start),
            )
            for start in (0, per_writer)
        ]
        for writer in writers:
            writer.start()
        # Sync concurrently with the appends: every intermediate sync must
        # succeed (shard stat + read happen under the store's writer lock),
        # even though the shard keeps growing between calls.
        while any(writer.is_alive() for writer in writers):
            index.sync()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        final = index.sync()
        assert index.count() == 2 * per_writer
        # A no-op sync after convergence re-reads nothing.
        assert index.sync().shards_read == 0
        rebuilt, _ = rebuild_index(store_path)
        assert rebuilt.count() == index.count() == len(
            RunStore(store_path).records()
        )
