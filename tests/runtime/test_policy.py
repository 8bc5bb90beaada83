"""ExecutionPolicy: validation against the engine table.

Every path name, its engine, and the policy fields that engine requires
or permits live in one table, ``repro.runtime.policy.PATHS``; these tests pin the
validation rules and messages the table drives.
"""

from __future__ import annotations

import pytest

from repro.runtime import ExecutionPolicy
from repro.runtime.policy import CHOLQR, CHOLQR_PATHS, ENGINES, LOOKAHEAD, PATH_NAMES, PATHS
from repro.verify.guards import GuardError


class TestValidation:
    def test_default_is_batched(self):
        p = ExecutionPolicy()
        assert p.path == "batched"
        assert p.engine is LOOKAHEAD and not p.uses_structured

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown execution path"):
            ExecutionPolicy(path="warp-drive")

    @pytest.mark.parametrize(
        "kwargs",
        [{"panel_width": 0}, {"block_rows": 0}],
    )
    def test_positive_geometry_required(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(path="batched", **kwargs)

    def test_bad_nonfinite_policy_is_guard_error(self):
        with pytest.raises(GuardError):
            ExecutionPolicy(nonfinite="explode")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().path = "lookahead"  # type: ignore[misc]

    def test_structured_flags(self):
        p = ExecutionPolicy(path="structured")
        assert p.uses_structured and p.engine is LOOKAHEAD
        assert not p.spec.coalescable
        assert [name for name, spec in PATHS.items() if spec.structured] == ["structured"]

    def test_with_nonfinite_returns_self_when_unchanged(self):
        p = ExecutionPolicy()
        assert p.with_nonfinite("raise") is p
        assert p.with_nonfinite("propagate").nonfinite == "propagate"


class TestEngineTable:
    def test_every_path_maps_to_one_engine(self):
        assert set(PATH_NAMES) == set(PATHS)
        assert len(PATH_NAMES) == 8
        assert {spec.engine for spec in PATHS.values()} == set(ENGINES)
        for name, spec in PATHS.items():
            fields = {f: 2 for f in spec.engine.required}
            assert ExecutionPolicy(path=name, **fields).engine is spec.engine

    def test_flags_drive_the_policy_views(self):
        for name, spec in PATHS.items():
            p = ExecutionPolicy(path=name, **{f: 2 for f in spec.engine.required})
            assert p.uses_structured == spec.structured
            assert p.uses_cholqr == (spec.engine is CHOLQR)
        assert CHOLQR_PATHS == ("cholqr2", "cholqr2_mixed", "auto")

    @pytest.mark.parametrize("name", PATH_NAMES)
    def test_fields_outside_an_engine_are_refused(self, name):
        spec = PATHS[name]
        base = {f: 2 for f in spec.engine.required}
        for field, value in (
            ("condition_limit", 10.0), ("shards", 2),
            ("fanin", 2), ("chunk_rows", 8), ("interconnect", "pcie2"),
        ):
            if field in spec.engine.required:
                continue
            kwargs = {**base, field: value}
            if field in spec.permits:
                ExecutionPolicy(path=name, **kwargs)
            else:
                with pytest.raises(ValueError, match=f"got path='{name}'"):
                    ExecutionPolicy(path=name, **kwargs)


class TestEntryPointShims:
    """The keyword shims are gone; default calls stay warning-free."""

    def test_default_calls_do_not_warn(self, rng, recwarn):
        from repro.core.caqr import caqr_qr

        caqr_qr(rng.standard_normal((32, 8)))
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestShardedPolicy:
    """path='sharded' wiring: shards/fanin/interconnect validation."""

    def test_shards_required(self):
        with pytest.raises(ValueError, match="requires shards"):
            ExecutionPolicy(path="sharded")

    def test_shards_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="shards applies only"):
            ExecutionPolicy(path="batched", shards=4)

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="shards must be positive"):
            ExecutionPolicy(path="sharded", shards=0)

    def test_fanin_bounds_and_scope(self):
        with pytest.raises(ValueError, match="fanin must be at least 2"):
            ExecutionPolicy(path="sharded", shards=4, fanin=1)
        with pytest.raises(ValueError, match="fanin applies only"):
            ExecutionPolicy(path="batched", fanin=2)
        assert ExecutionPolicy(path="sharded", shards=4).effective_fanin == 2
        assert ExecutionPolicy(path="sharded", shards=4, fanin=4).effective_fanin == 4

    def test_interconnect_validated_and_resolved(self):
        from repro.distributed import INTERCONNECTS

        with pytest.raises(ValueError, match="unknown interconnect"):
            ExecutionPolicy(path="sharded", shards=4, interconnect="carrier-pigeon")
        with pytest.raises(ValueError, match="interconnect applies only"):
            ExecutionPolicy(path="batched", interconnect="pcie2")
        p = ExecutionPolicy(path="sharded", shards=4, interconnect="ethernet")
        assert p.resolved_interconnect() is INTERCONNECTS["ethernet"]
        default = ExecutionPolicy(path="sharded", shards=4).resolved_interconnect()
        assert default is INTERCONNECTS["pcie2"]

    def test_describe_names_the_shard_geometry(self):
        from repro.runtime import plan_qr

        plan = plan_qr(64, 8, policy=ExecutionPolicy(path="sharded", shards=4, fanin=3))
        assert "shards=4" in plan.describe() and "fanin=3" in plan.describe()
