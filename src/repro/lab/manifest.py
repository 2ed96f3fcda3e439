"""``tempest-manifest-v1``: the content-hashed identity of one run.

A manifest records everything needed to *re-execute* a run bit-for-bit
(the payu manifest.py idea, applied to a deterministic simulator):
workload and parameters, the resolved platform/machine fingerprint, the
experiment seed, the fault plan (spec, seed, and the digest of its
canonical schedule encoding), the HCCT budget, and the code version —
folded into one ``inputs_digest``.  The run id is derived from that
digest, so two cells of a sweep with identical inputs are literally the
same run (which is what makes sweep resume a pure existence check).

Alongside the inputs it records the run's *outputs* as content digests:
the ``tempest-summary-v3`` document (stored as a blob), the check
report, and the per-node raw record streams.  ``tempest lab rerun``
re-executes the spec and compares output digests — equality proves the
profile is exactly reproducible, inequality is drift (nondeterminism,
code change, or tampering) and exits 1.  ``tempest lab verify`` re-hashes
the *stored* artifacts instead, catching bit-rot without re-running.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.util.canonjson import content_digest
from repro.util.errors import LabError

__all__ = [
    "MANIFEST_FORMAT",
    "RunManifest",
    "RunSpec",
    "fault_plan_record",
    "machine_fingerprint",
]

#: format tag carried by every manifest document
MANIFEST_FORMAT = "tempest-manifest-v1"

#: workload kinds a spec can name
KIND_NPB = "npb"
KIND_MICRO = "micro"
_KINDS = (KIND_NPB, KIND_MICRO)


@dataclass(frozen=True)
class RunSpec:
    """Everything the executor needs to reproduce one run.

    A spec is pure data (CLI-argument shaped); resolution to machines,
    fault plans, and workload configs happens in
    :mod:`repro.lab.execute` so a spec hashed today re-resolves the same
    way tomorrow.
    """

    kind: str = KIND_NPB             # "npb" | "micro"
    bench: str = "FT"                # NPB code, or micro bench letter
    klass: str = "S"                 # NPB problem class (npb only)
    ranks: int = 4                   # MPI ranks (npb only)
    nodes: int = 4                   # cluster size
    iters: Optional[int] = None      # iteration override (npb only)
    seed: int = 1234                 # experiment seed
    platform: str = "default"        # "default" or a PLATFORMS preset name
    vary_nodes: bool = True          # per-node manufacturing variation
    inject: Optional[str] = None     # --inject fault spec, None = clean
    fault_seed: Optional[int] = None  # fault schedule seed (default: seed)
    hcct_budget: Optional[int] = None  # HCCT contexts per node (None = off)
    label: str = ""                  # free-form tag (e.g. the fault band)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise LabError(f"unknown run kind {self.kind!r}; have {_KINDS}")
        if self.nodes < 1 or (self.kind == KIND_NPB and self.ranks < 1):
            raise LabError(f"run spec needs >= 1 nodes/ranks: {self}")

    def slug(self) -> str:
        """The human prefix of the run id."""
        parts = [self.kind, self.bench.lower()]
        if self.kind == KIND_NPB:
            parts.append(self.klass.lower())
            parts.append(f"{self.ranks}x{self.nodes}")
        if self.platform != "default":
            parts.append(self.platform)
        parts.append(self.label if self.label
                     else ("faulty" if self.inject else "clean"))
        parts.append(f"s{self.seed}")
        return "-".join(parts)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise LabError(f"run spec has unknown fields {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise LabError(f"malformed run spec: {exc}")


def machine_fingerprint(machine) -> dict:
    """A JSON fingerprint of the resolved cluster configuration.

    Captures what the platform presets and per-node variation actually
    produced — topology, nominal clocks, sensor complement, thermal
    variation draws — so a manifest detects when "the same spec" would
    no longer build the same machine (changed preset, changed variation
    model).  Purely descriptive: no simulation state.
    """
    nodes = {}
    for name, node in machine.nodes.items():
        cfg = node.config
        nodes[name] = {
            "n_sockets": cfg.n_sockets,
            "cores_per_socket": cfg.cores_per_socket,
            "nominal_freq_hz": [c.nominal_freq_hz for c in node.cores],
            "sensors": [s.name for s in node.chip.sensors],
            "ambient_c": cfg.ambient_c,
            "fan_rpm": cfg.fan_rpm,
            "speed_grade": cfg.speed_grade,
            "paste_quality": cfg.paste_quality,
            "airflow_quality": cfg.airflow_quality,
            "inlet_offset_c": cfg.inlet_offset_c,
        }
    return {"seed": machine.config.seed, "nodes": nodes}


def fault_plan_record(spec: RunSpec, node_names: list[str]) -> Optional[dict]:
    """Resolve a spec's fault plan into its manifest record.

    Returns None for clean runs; otherwise the inject spec, the
    resolved seed, and the sha256 of the plan's canonical schedule
    encoding (:meth:`repro.faults.plan.FaultPlan.encode`) — the digest a
    rerun checks before executing, so fault-schedule drift is caught
    *before* wasting a simulation.
    """
    if spec.inject is None:
        return None
    import hashlib

    from repro.faults.inject import parse_inject_spec
    from repro.faults.plan import FaultPlan

    seed = spec.fault_seed if spec.fault_seed is not None else spec.seed
    plan = FaultPlan(parse_inject_spec(spec.inject), seed, node_names)
    return {
        "spec": spec.inject,
        "seed": seed,
        "schedule_sha256": hashlib.sha256(plan.encode()).hexdigest(),
        "n_events": len(plan.events()),
    }


@dataclass
class RunManifest:
    """One run's identity (inputs) and evidence (output digests)."""

    spec: RunSpec
    tempest_version: str
    platform_config: dict = field(default_factory=dict)
    fault_plan: Optional[dict] = None
    #: output content digests: summary blob, check-report blob,
    #: per-node raw record streams, record count
    outputs: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Identity

    def inputs_dict(self) -> dict:
        """The hashed re-execution inputs (excludes outputs)."""
        return {
            "format": MANIFEST_FORMAT,
            "tempest_version": self.tempest_version,
            "spec": self.spec.to_dict(),
            "platform_config": self.platform_config,
            "fault_plan": self.fault_plan,
        }

    @property
    def inputs_digest(self) -> str:
        return content_digest(self.inputs_dict())

    @property
    def run_id(self) -> str:
        return f"{self.spec.slug()}-{self.inputs_digest[:12]}"

    # ------------------------------------------------------------------
    # Serialization

    def to_dict(self) -> dict:
        doc = self.inputs_dict()
        doc["inputs_digest"] = self.inputs_digest
        doc["run_id"] = self.run_id
        doc["outputs"] = dict(self.outputs)
        return doc

    @classmethod
    def from_dict(cls, obj: dict) -> "RunManifest":
        fmt = obj.get("format")
        if fmt != MANIFEST_FORMAT:
            raise LabError(
                f"manifest declares format {fmt!r}, expected "
                f"{MANIFEST_FORMAT!r}"
            )
        try:
            out = cls(
                spec=RunSpec.from_dict(obj["spec"]),
                tempest_version=str(obj["tempest_version"]),
                platform_config=dict(obj.get("platform_config", {})),
                fault_plan=obj.get("fault_plan"),
                outputs=dict(obj.get("outputs", {})),
            )
        except KeyError as exc:
            raise LabError(f"manifest missing required field: {exc}")
        declared = obj.get("inputs_digest")
        if declared is not None and declared != out.inputs_digest:
            raise LabError(
                f"manifest inputs digest mismatch: declared "
                f"{declared[:12]}..., recomputed "
                f"{out.inputs_digest[:12]}... — the manifest was edited "
                "or the hashing rules changed"
            )
        return out
