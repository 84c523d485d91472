"""Span-tree determinism.

Span identity is pure structure, so the span tree — and its
:func:`span_tree_signature` — matches a pinned serial oracle.  The
bus-history half of the determinism contract (byte-identical stripped
event sequences and counter totals at a kill point, across replays and
interpreter hash seeds) lives in ``tests/test_live_restart.py``.
"""

from repro.core.pipeline import SpoofTracker
from repro.obs import Observability, load_spans, span_tree_signature
from tests.test_obs import TRACK_SPAN_SIGNATURE


class TestSerialSpanTree:
    def _run(self, testbed):
        obs = Observability.for_run("track")
        SpoofTracker(testbed, obs=obs).run(max_configs=10)
        obs.tracer.finish()
        return obs

    def test_span_signature_pinned_and_survives_jsonl(
        self, small_testbed, tmp_path
    ):
        obs = self._run(small_testbed)
        signature = span_tree_signature(obs.tracer.records())
        assert signature == TRACK_SPAN_SIGNATURE
        # The signature survives the JSONL round trip (what the CLI's
        # --trace writes is what load_spans reads back).
        path = str(tmp_path / "trace.jsonl")
        obs.tracer.write_jsonl(path)
        assert span_tree_signature(load_spans(path)) == signature

    def test_simulation_spans_nest_under_engine_batch(self, small_testbed):
        spans = self._run(small_testbed).tracer.records()
        by_id = {span["span_id"]: span for span in spans}
        parents = {
            span["span_id"]: by_id[span["parent_id"]]["name"]
            for span in spans
            if span["parent_id"]  # every span but the root has a parent
        }
        children = [
            span for span in spans
            if parents.get(span["span_id"]) == "engine_batch"
        ]
        assert children
        for span in children:
            assert span["name"] in ("simulate", "warm_start")
            assert span["attrs"]["configs"] >= 1
