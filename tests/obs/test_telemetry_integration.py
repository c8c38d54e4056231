"""Telemetry threaded through real runs: no-op contract, dumps, CLI.

The crucial guarantee is the first class: a run with ``telemetry=None``
and a run with a constructed-but-disabled ``Telemetry`` consume the same
RNG streams and produce bit-identical traces.  Everything else (span
kinds, exporters, the ``repro obs`` command) builds on small instrumented
runs of the same deployments.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import NULL_TELEMETRY, Telemetry, validate_nesting
from repro.obs.exporters import to_chrome_trace, to_prometheus_text
from repro.obs.summary import summarize_dump


def _build_des_loop(telemetry=None, seed=9):
    from repro.core import get_policy
    from repro.core.des_loop import DesControlLoop
    from repro.pcam import OracleRttfPredictor, VirtualMachine
    from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
    from repro.workload import AnomalyInjector, BrowserPopulation

    rngs = RngRegistry(seed=seed)

    def pool(region, itype, n):
        return [
            VirtualMachine(
                f"{region}/vm{i}",
                itype,
                AnomalyInjector(rngs.child(f"{region}{i}").stream("a")),
            )
            for i in range(n)
        ]

    regions = {
        "r1": (pool("r1", M3_MEDIUM, 6), BrowserPopulation(n_clients=96), 4),
        "r3": (pool("r3", PRIVATE_SMALL, 4), BrowserPopulation(n_clients=48), 3),
    }
    return DesControlLoop(
        regions,
        get_policy("available-resources"),
        OracleRttfPredictor(),
        rngs,
        telemetry=telemetry,
    )


def _trace_tuples(loop):
    out = {}
    for prefix in ("rmttf/", "fraction/", "response_time/"):
        for name, series in loop.traces.matching(prefix).items():
            out[name] = (tuple(series.times), tuple(series.values))
    return out


class TestDisabledIsInvisible:
    def test_disabled_telemetry_is_bit_identical_to_none(self):
        baseline = _build_des_loop(telemetry=None)
        baseline.run(6)
        disabled = _build_des_loop(telemetry=Telemetry(enabled=False))
        disabled.run(6)
        assert _trace_tuples(baseline) == _trace_tuples(disabled)

    def test_null_telemetry_singleton_works_too(self):
        baseline = _build_des_loop(telemetry=None)
        baseline.run(4)
        nulled = _build_des_loop(telemetry=NULL_TELEMETRY)
        nulled.run(4)
        assert _trace_tuples(baseline) == _trace_tuples(nulled)

    def test_enabled_telemetry_does_not_change_the_run(self):
        # observation must not perturb the system: same series either way
        baseline = _build_des_loop(telemetry=None)
        baseline.run(4)
        observed = _build_des_loop(telemetry=Telemetry(enabled=True))
        observed.run(4)
        assert _trace_tuples(baseline) == _trace_tuples(observed)

    def test_disabled_facade_hands_out_inert_handles(self):
        tel = Telemetry(enabled=False)
        tel.counter("x").inc()
        tel.gauge("g").set(3)
        tel.histogram("h").observe(1.0)
        tel.event("anything", detail=1)
        with tel.span("s") as args:
            args["k"] = "v"
        h = tel.open_span("a", "channel")
        tel.close_span(h)
        assert tel.snapshot() == {"enabled": False}

    def test_disabled_autodump_writes_nothing(self, tmp_path):
        tel = Telemetry(enabled=False)
        tel.autodump_path = str(tmp_path / "x.json")
        assert tel.maybe_autodump() is None
        assert not (tmp_path / "x.json").exists()


class TestInstrumentedDesRun:
    @pytest.fixture(scope="class")
    def telemetry(self):
        tel = Telemetry(enabled=True)
        loop = _build_des_loop(telemetry=tel)
        loop.run(8)
        return tel

    def test_span_kinds_cover_the_loop(self, telemetry):
        kinds = telemetry.tracer.kinds()
        assert {"era", "mape"} <= kinds

    def test_spans_nest_cleanly(self, telemetry):
        assert validate_nesting(telemetry.tracer.spans) == []
        assert telemetry.tracer.open_count() == 0

    def test_request_latency_histogram_populated(self, telemetry):
        hists = [
            h
            for h in telemetry.registry.histograms()
            if h.name == "request_response_time_s"
        ]
        assert hists and sum(h.count for h in hists) > 0

    def test_sim_event_counter_tracks_dispatches(self, telemetry):
        c = telemetry.registry.counter("sim_events_dispatched_total")
        assert c.value > 0

    def test_mape_phases_per_era(self, telemetry):
        mape = telemetry.tracer.by_kind("mape")
        names = {s.name for s in mape}
        assert names == {"monitor", "analyze", "plan", "execute"}
        assert len(mape) == 4 * 8


class TestExporters:
    @pytest.fixture(scope="class")
    def telemetry(self):
        tel = Telemetry(enabled=True)
        from repro.obs import RunManifest

        tel.set_manifest(RunManifest.build(seed=9, config={"eras": 6}))
        loop = _build_des_loop(telemetry=tel)
        loop.run(6)
        return tel

    def test_chrome_trace_is_valid_and_laminar(self, telemetry):
        doc = to_chrome_trace(telemetry.tracer.snapshot(), telemetry.manifest)
        doc = json.loads(json.dumps(doc))  # must be JSON-serialisable
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert xs and metas
        assert all(e["dur"] >= 0 for e in xs)
        assert doc["otherData"]["manifest"]["seed"] == 9
        # tids are ints, with a thread_name metadata event for each
        named = {e["tid"] for e in metas}
        assert {e["tid"] for e in xs} <= named

    def test_prometheus_text_format(self, telemetry):
        text = to_prometheus_text(
            telemetry.registry.snapshot(), telemetry.manifest
        )
        assert "# TYPE repro_run_info gauge" in text
        assert 'seed="9"' in text
        assert "_bucket{" in text and 'le="+Inf"' in text

    def test_dump_and_summary_render(self, telemetry, tmp_path):
        path = tmp_path / "dump.json"
        telemetry.dump_json(str(path))
        doc = json.loads(path.read_text())
        text = summarize_dump(doc)
        assert "run manifest" in text
        assert "nesting: OK" in text

    def test_autodump_writes_configured_path(self, tmp_path):
        tel = Telemetry(enabled=True)
        assert tel.maybe_autodump() is None  # no path configured
        tel.autodump_path = str(tmp_path / "auto.json")
        assert tel.maybe_autodump() == tel.autodump_path
        assert json.loads(
            (tmp_path / "auto.json").read_text()
        )["enabled"] is True


class TestStatsBridging:
    def test_channel_stats_mirror_into_registry(self):
        from repro.overlay.messaging import MessageBus
        from repro.overlay.network import OverlayNetwork
        from repro.overlay.reliable import ReliableChannel
        from repro.overlay.routing import Router
        from repro.sim.engine import Simulator

        import numpy as np

        tel = Telemetry(enabled=True)
        net = OverlayNetwork()
        for n in ("a", "b"):
            net.add_node(n)
        net.add_link("a", "b", 10.0)
        sim = Simulator(telemetry=tel)
        bus = MessageBus(sim=sim, router=Router(net), telemetry=tel)
        chan = ReliableChannel(
            bus, np.random.default_rng(0), telemetry=tel
        )
        chan.attach(("a"), lambda m: None)
        chan.attach(("b"), lambda m: None)
        chan.send("a", "b", "ping", {"x": 1})
        sim.run_until(5.0)
        # legacy attributes still work ...
        assert chan.stats.sent == 1 and chan.stats.acked == 1
        # ... and the registry holds the same numbers
        reg = tel.registry
        assert reg.counter("channel_sent_total").value == 1
        assert reg.counter("channel_acked_total").value == 1
        # the send span closed with the ack
        spans = tel.tracer.by_kind("channel")
        assert len(spans) == 1
        assert spans[0].args["outcome"] == "acked"


class TestObsCli:
    def _dump(self, tmp_path):
        tel = Telemetry(enabled=True)
        from repro.obs import RunManifest

        tel.set_manifest(RunManifest.build(seed=9, config={}))
        loop = _build_des_loop(telemetry=tel)
        loop.run(6)
        path = tmp_path / "dump.json"
        tel.dump_json(str(path))
        return path

    def test_obs_command_summarises_dump(self, tmp_path, capsys):
        from repro.cli import main

        path = self._dump(tmp_path)
        chrome = tmp_path / "trace.json"
        assert main(["obs", str(path), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "span time breakdown" in out
        trace = json.loads(chrome.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_obs_command_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["obs", str(bad)]) == 1

    def test_obs_command_rejects_disabled_dump(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "disabled.json"
        path.write_text(json.dumps({"enabled": False}))
        assert main(["obs", str(path)]) == 1
