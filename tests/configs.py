"""Config text written by the test suite: a parsed config back as canonical
text, and a finite flow as a classic-run config."""

from __future__ import annotations

from fkips.config import _SCHEMA, ExperimentConfig, _config_text, _fmt
from fkips.flow import FlowSpec


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) is a fixed point."""
    out = []
    for section in _SCHEMA:
        if section not in cfg.raw.sections:
            continue
        body = cfg.raw.sections[section]
        if section == "flow" and cfg.kind == "classic":
            # the potentials and a kernels stack leave raw once the flow is
            # built; write the flow's copies (kernels normalized) in their place
            body = {**body, "potentials": cfg.flow.potentials}
            if "kernel" not in body:
                body["kernels"] = cfg.flow.kernels.reshape(-1, cfg.flow.dim)
        out.append(f"[{section}]")
        for key in sorted(body):
            out.append(f"{key} = {_config_text(body[key])}")
        out.append("")
    return "\n".join(out)


def flow_to_config(spec: FlowSpec, *, n_particles=100, replicates=1, seed=0, steps=None) -> str:
    """Render a finite flow as classic-run config text."""
    lines = ["[flow]"]
    lines.append("initial = " + " ".join(_fmt(x) for x in spec.initial))
    lines.append(
        "potentials = "
        + "; ".join(" ".join(_fmt(x) for x in g) for g in spec.potentials)
    )
    stacked = spec.kernels.reshape(-1, spec.dim)
    lines.append("kernels = " + "; ".join(" ".join(_fmt(x) for x in row) for row in stacked))
    lines.append("")
    lines.append("[algorithm]")
    lines.append("kind = classic")
    lines.append("")
    lines.append("[run]")
    lines.append(f"n_particles = {n_particles}")
    lines.append(f"steps = {steps if steps is not None else spec.horizon}")
    lines.append(f"replicates = {replicates}")
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"
