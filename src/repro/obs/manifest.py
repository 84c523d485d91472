"""Run manifests: everything needed to reproduce (or audit) one run.

The HAW reproducibility study attributes most reproduction drift to
*unlogged pipeline decisions* — which seed, which scale, which fault
plan, which library versions.  A :class:`RunManifest` freezes those
decisions at run time and travels on the report (and into the metrics /
trace exports), so every artifact this repo emits is self-describing.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, Mapping, Optional

#: Env-var name substrings (case-insensitive) whose values are redacted.
REDACT_MARKERS = ("KEY", "TOKEN", "SECRET", "PASSWORD", "CREDENTIAL")

#: Replacement recorded for redacted values.
REDACTED = "[redacted]"

#: Env vars worth freezing in a manifest: the knobs that change how this
#: process computes, not the whole environment (which would be noisy and
#: a bigger leak surface).
CAPTURED_ENV_PREFIXES = (
    "PYTHON",
    "REPRO_",
    "SPOOFTRACK_",
    "OMP_",
    "OPENBLAS_",
    "MKL_",
    "NUMEXPR_",
)


def capture_environment(
    environ: Optional[Mapping[str, str]] = None,
) -> Dict[str, str]:
    """Relevant environment variables, credentials redacted.

    Captures variables whose names start with one of
    :data:`CAPTURED_ENV_PREFIXES`; any variable whose name contains a
    :data:`REDACT_MARKERS` substring (``KEY``/``TOKEN``/``SECRET``/...)
    keeps its name but records :data:`REDACTED` as the value, so
    ``/manifest`` and exported manifests can never leak credentials even
    when something like ``PYTHON_API_KEY`` matches a captured prefix.
    """
    source = os.environ if environ is None else environ
    captured: Dict[str, str] = {}
    for name in sorted(source):
        if not name.startswith(CAPTURED_ENV_PREFIXES):
            continue
        upper = name.upper()
        if any(marker in upper for marker in REDACT_MARKERS):
            captured[name] = REDACTED
        else:
            captured[name] = source[name]
    return captured


def git_describe(cwd: Optional[str] = None) -> str:
    """``git describe --always --dirty`` of the working tree, or ``""``.

    Gated: outside a checkout (installed package, container without
    git) the manifest simply records an empty revision.
    """
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    if result.returncode != 0:
        return ""
    return result.stdout.strip()


def library_versions() -> Dict[str, str]:
    """Versions of the numeric stack the pipeline depends on."""
    versions: Dict[str, str] = {}
    for module_name in ("numpy", "scipy"):
        try:
            module = __import__(module_name)
            versions[module_name] = getattr(module, "__version__", "unknown")
        except ImportError:
            versions[module_name] = "absent"
    return versions


@dataclass(frozen=True)
class RunManifest:
    """Frozen description of one run's inputs and environment.

    Attributes:
        command: the subcommand (``track``, ``live``, ``chaos``, ...).
        seed: the global PRNG seed.
        scale: topology scale name (``""`` for programmatic runs).
        config: remaining run parameters (max_configs, distribution, ...).
        fault_plan: serialized fault plan, or None for fault-free runs.
        git_revision: ``git describe`` of the source tree ("" if unknown).
        python_version: interpreter version string.
        platform: OS/architecture identifier.
        repro_version: this package's version.
        libraries: numeric-stack library versions.
        environment: captured env vars (see :func:`capture_environment`;
            credential-shaped values arrive already redacted).
    """

    command: str = ""
    seed: int = 0
    scale: str = ""
    config: Dict[str, object] = field(default_factory=dict)
    fault_plan: Optional[Dict] = None
    git_revision: str = ""
    python_version: str = ""
    platform: str = ""
    repro_version: str = ""
    libraries: Dict[str, str] = field(default_factory=dict)
    environment: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        """JSON-safe dump."""
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def write(self, path: str) -> str:
        """Write the manifest JSON to ``path``; returns the path."""
        from . import ensure_parent_dir

        ensure_parent_dir(path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path


def build_manifest(
    command: str,
    seed: int = 0,
    scale: str = "",
    config: Optional[Mapping[str, object]] = None,
    fault_plan: Optional[Dict] = None,
) -> RunManifest:
    """Assemble a :class:`RunManifest` for the current environment."""
    from .. import __version__

    return RunManifest(
        command=command,
        seed=seed,
        scale=scale,
        config=dict(config or {}),
        fault_plan=fault_plan,
        git_revision=git_describe(),
        python_version=sys.version.split()[0],
        platform=platform.platform(),
        repro_version=__version__,
        libraries=library_versions(),
        environment=capture_environment(),
    )
