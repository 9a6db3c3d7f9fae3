"""Batch driver: named objects in a JSON config, commands to CSV reports.

One config document declares groups, algebras, actions, twists, bundles and
witness families as named blocks; commands resolve references, run the
corresponding validators or evaluators, and emit a CSV whose every row
repeats the command, config hash and seed, so a row can be re-run on its
own.  Identical (config, seed, command) input produces byte-identical
output.  Exit codes: 0 pass, 1 validation or certification failure,
2 config or usage error, 3 unsupported construction for the given group.

A subcommand is a function ``body(store, tol, **options) -> Report`` that
``command`` registers; the runner maps a ``ConfigError`` (a value a block's
constructor refuses, named ``section.name``; a request over a cap; an
unwritable output) to exit 2 and an ``UnsupportedGroupError`` to 3.

The config grammar is documented in the README; numbers are plain decimal,
complex scalars are [re, im] pairs, matrices are nested lists of those.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import errno
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import click
import numpy as np

from .algebra import (
    FdAlgebra,
    Ideal,
    IdealIso,
    PartialAction,
    globalize_finite,
    identity_action,
    op_norm,
    restrict_action,
    translation_action,
    trivial_partial_action,
    unit_identity_residual,
    validate_partial_action,
)
from .approx import (
    BOUND_CAP,
    Target,
    _basis_targets,
    ap_certify,
    folner_witness,
    uniform_witness,
)
from .bundles import (
    Twist,
    TwistedBundle,
    group_bundle,
    make_semidirect,
    make_twisted,
    trivial_twist,
    validate_bundle,
    validate_twist,
)
from .cantor import (
    cantor_witness_bound,
    cuntz_defect_table,
    partial_symbol,
    spectral_groupoid,
    validate_groupoid,
    xi_witness,
)
from .groups import (
    Elem,
    FreeGroup,
    Group,
    LatticeGroup,
    UnsupportedGroupError,
    cyclic_group,
    symmetric_group,
    FiniteGroup,
)
from .kernels import Window, beta_act, k_mul, k_star, mf_dim, mf_embed_norm, norm2
from .testing import (
    random_fell_bundle,
    random_global_action,
    random_kernel,
    random_partial_action,
    scalar_coboundary_twist,
)


class ConfigError(ValueError):
    """Anything wrong with the config document or a reference into it."""


# The work of ``validate`` and ``kernels`` grows with the ball they walk
# times their samples, that of ``validate`` on a twist with the cube of the
# ball times the algebra's dimension (the cocycle law on each (r, s, t) and
# basis element), that of ``groupoid`` with its ball and its arrows, and a
# table group or a Folner box enumerates its elements; larger requests are
# refused (exit 2) before anything is built.
BALL_CAP = 200
TWIST_CAP = 600_000
ARROW_CAP = 2**16


def _check_ball(g: Group, radius: int, samples: int = 1) -> int:
    """The size of the ball, counted from the group's shape: layers of
    2n (2n - 1)^(k - 1) words in a free group of rank n,
    sum_k 2^k C(d, k) C(radius, k) points in Z^d. Refuse a ball of more
    than BALL_CAP elements, and more than 5 BALL_CAP (element, sample)
    pairs."""
    if isinstance(g, FreeGroup):
        size, layer = 1, 2 * g.rank
        for _ in range(radius):
            if size > BALL_CAP:
                break
            size, layer = size + layer, layer * (2 * g.rank - 1)
    elif isinstance(g, LatticeGroup):
        ks = range(min(g.dim, radius) + 1)
        size = sum(2**k * math.comb(g.dim, k) * math.comb(radius, k) for k in ks)
    else:
        size = len(g.ball(radius))
    if size > BALL_CAP:
        raise ConfigError(f"the ball of radius {radius} in {g.label} has over {BALL_CAP} elements")
    if size * samples > 5 * BALL_CAP:
        raise ConfigError(f"--samples {samples} on a ball of {size} elements makes over {5 * BALL_CAP} pairs")
    return size


def _arrow_count(n: int, depth: int, radius: int) -> int:
    """The arrows of ``spectral_groupoid(n, depth, radius)``: a reduced
    a b^-1 with |a| = i and |b| = j <= depth acts on the n^(depth - j)
    depth-d words inside X_b, and of the n^(i + j) pairs (a, b) the
    n^(i + j - 1) whose last letters cancel are not reduced when i, j > 0."""
    total = 0
    for j in range(min(depth, radius) + 1):
        for i in range(radius - j + 1):
            pairs = n ** (i + j) - (n ** (i + j - 1) if i and j else 0)
            total += pairs * n ** (depth - j)
    return total


def _parse_elems(g: Group, text: str) -> List[Elem]:
    """The elements of a list separated by semicolons, or by commas when the
    text has no semicolon: ``1,0;0,-1`` names two elements of Z^2 and
    ``1,0;`` one. A token the group cannot read is a config error, with a
    hint on that split when Z^d, d >= 2, gets a token without a comma."""
    planar = isinstance(g, LatticeGroup) and g.dim >= 2
    out = []
    for token in text.removesuffix(";").split(";") if ";" in text else text.split(","):
        where = f"cannot read {token.strip()!r} in {g.label}"
        if planar and "," not in token:
            where += " (the list splits on ',' unless it contains ';', and '1,0;' names one element)"
        with _naming(where):
            out.append(g.parse_elem(token.strip()))
    return out


def _fval(x: float) -> str:
    return format(float(x), ".12e")


def _as_complex(v) -> complex:
    if isinstance(v, (int, float)):
        z = complex(v)
    elif isinstance(v, str):
        z = complex(float(v))
    elif isinstance(v, (list, tuple)) and len(v) == 2:
        z = complex(float(v[0]), float(v[1]))
    else:
        raise ValueError(f"cannot read {v!r} as a complex value")
    if not cmath.isfinite(z):
        raise ValueError(f"{v!r} is not a finite complex value")
    return z


def _as_matrix(rows) -> np.ndarray:
    return np.array([[_as_complex(v) for v in row] for row in rows], dtype=complex)


@contextlib.contextmanager
def _naming(where: str):
    """Turn a KeyError, TypeError or ValueError raised inside, as by a
    constructor refusing a config value, into a config error naming
    ``where``; a ConfigError or UnsupportedGroupError passes unchanged."""
    try:
        yield
    except (ConfigError, UnsupportedGroupError):
        raise
    except KeyError as exc:
        raise ConfigError(f"{where}: no entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class ConfigStore:
    """The named blocks of a config document, each made once on first use
    and kept in ``built`` under its (section, name)."""

    raw: dict
    sha: str
    seed: int = 0
    built: dict = field(default_factory=dict)

    def _get(self, section: str, name: str, make: Callable[[dict], object]):
        """The block ``section.name``, made by ``make(spec)`` on first use;
        an error in making it names the block (see ``_naming``)."""
        key = (section, name)
        if key not in self.built:
            spec = self.raw.get(section, {}).get(name)
            if spec is None:
                raise ConfigError(f"no {section} entry named {name!r}")
            if not isinstance(spec, dict) or "kind" not in spec and section != "algebras":
                raise ConfigError(f"{section}.{name} must be an object with a 'kind'")
            with _naming(f"{section}.{name}"):
                self.built[key] = make(spec)
        return self.built[key]

    def _rng(self, spec: dict) -> np.random.Generator:
        return np.random.default_rng([self.seed, int(spec.get("salt", 0))])

    def _finite(self, spec: dict, what: str) -> FiniteGroup:
        g = self.group(spec["group"])
        if not isinstance(g, FiniteGroup):
            raise ConfigError(f"{what} need a finite group")
        return g

    def group(self, name: str) -> Group:
        def make(spec: dict) -> Group:
            kind = spec["kind"]
            if kind == "cyclic":
                order = int(spec["order"])
                if order > BALL_CAP:
                    raise ValueError(f"a cyclic group of order {order} has over {BALL_CAP} elements")
                return cyclic_group(order)
            if kind == "symmetric":
                return symmetric_group(int(spec["n"]))
            if kind == "lattice":
                return LatticeGroup(int(spec["dim"]))
            if kind == "free":
                return FreeGroup(int(spec["rank"]))
            raise ConfigError(f"unknown group kind {kind!r}")

        return self._get("groups", name, make)

    def algebra(self, name: str) -> FdAlgebra:
        def make(spec: dict) -> FdAlgebra:
            if not spec.get("blocks"):
                raise ConfigError(f"algebras.{name} needs a nonempty 'blocks' list")
            return FdAlgebra([int(d) for d in spec["blocks"]])

        return self._get("algebras", name, make)

    def action(self, name: str) -> PartialAction:
        def make(spec: dict) -> PartialAction:
            kind = spec["kind"]
            if kind == "trivial":
                return trivial_partial_action(self.group(spec["group"]), self.algebra(spec["algebra"]))
            if kind == "identity":
                return identity_action(self.group(spec["group"]), self.algebra(spec["algebra"]))
            if kind == "translation":
                g = self._finite(spec, "translation actions")
                return translation_action(g, self.algebra(spec["algebra"]))
            if kind in ("random", "random-global"):
                g = self._finite(spec, kind.replace("-", " ") + " actions")
                blocks = [int(d) for d in spec["blocks"]] if "blocks" in spec else None
                random_action = random_partial_action if kind == "random" else random_global_action
                return random_action(self._rng(spec), g, blocks)
            if kind == "explicit":
                return self._explicit_action(name, spec)
            raise ConfigError(f"unknown action kind {kind!r}")

        return self._get("actions", name, make)

    def _explicit_action(self, name: str, spec: dict) -> PartialAction:
        g = self._finite(spec, "explicit actions")
        alg = self.algebra(spec["algebra"])
        isos = spec.get("isos")
        if not isinstance(isos, dict):
            raise ConfigError(f"actions.{name} needs an 'isos' table")
        table: Dict[Elem, IdealIso] = {}
        for text, data in isos.items():
            t = g.parse_elem(text)
            with _naming(f"actions.{name}.isos.{text}"):
                phi = {int(j): int(k) for j, k in data["phi"].items()}
                unis = {int(j): _as_matrix(m) for j, m in data["unitaries"].items()}
                table[t] = IdealIso(
                    Ideal(alg, phi.keys()), Ideal(alg, phi.values()), phi, unis
                )
        missing = [t for t in g.elements() if t not in table]
        if missing:
            raise ConfigError(
                f"actions.{name} missing isos for {len(missing)} group elements"
            )
        return PartialAction(g, alg, table)

    def twist(self, name: str) -> Tuple[PartialAction, Twist]:
        def make(spec: dict) -> Tuple[PartialAction, Twist]:
            pa = self.action(spec["action"])
            kind = spec["kind"]
            if kind == "trivial":
                tw = trivial_twist(pa)
            elif kind == "scalar":
                tw = scalar_coboundary_twist(pa, int(spec.get("salt", 0)))
            else:
                raise ConfigError(f"unknown twist kind {kind!r}")
            perturb = spec.get("perturb")
            if not perturb:
                return pa, tw
            g = pa.group
            s0 = g.parse_elem(str(perturb["s"]))
            t0 = g.parse_elem(str(perturb["t"]))
            phase = complex(np.exp(1j * float(perturb.get("scale", 1e-3))))

            def fn_many(pairs: list) -> tuple:
                batch = tw.take(tw.rows(pairs))
                if (s0, t0) in pairs:
                    i = pairs.index((s0, t0))
                    for p in batch:
                        p[i] = phase * p[i]
                return batch

            return pa, Twist.batched(pa.algebra, fn_many)

        return self._get("twists", name, make)

    def bundle(self, name: str) -> TwistedBundle:
        def make(spec: dict) -> TwistedBundle:
            kind = spec["kind"]
            if kind == "group":
                return group_bundle(self.group(spec["group"]), self.algebra(spec["algebra"]))
            if kind == "semidirect":
                return make_semidirect(self.action(spec["action"]))
            if kind == "twisted":
                return make_twisted(*self.twist(spec["twist"]))
            if kind == "random":
                g = self.group(spec["group"]) if "group" in spec else None
                return random_fell_bundle(self._rng(spec), g, spec.get("flavor"))[0]
            raise ConfigError(f"unknown bundle kind {kind!r}")

        return self._get("bundles", name, make)


def load_config(path: Optional[str], seed: int) -> ConfigStore:
    if path is None:
        return ConfigStore(raw={}, sha="-", seed=seed)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not all(isinstance(v, dict) for v in raw.values()):
        raise ConfigError("config must be an object of sections, each an object of named blocks")
    return ConfigStore(raw=raw, sha=hashlib.sha256(blob).hexdigest()[:12], seed=seed)


@dataclass
class Report:
    command: str
    columns: Tuple[str, ...]
    rows: List[Tuple[str, ...]]
    summary: str
    passed: bool

    def write(self, out: Optional[str], store: ConfigStore) -> None:
        if out is None:
            return
        stamp = (self.command, store.sha, str(store.seed))
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("command", "config", "seed") + self.columns)
            writer.writerows(stamp + tuple(row) for row in self.rows)


def _tolerance(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """Refuse a NaN, infinite or negative ``--tol``: a residual is compared
    with ``>`` against it, and every residual passes NaN or infinity."""
    if not 0 <= value < math.inf:
        raise click.BadParameter(f"{value} is not a finite number of 0 or more")
    return value


@click.group()
@click.option("--config", type=click.Path(), default=None, help="JSON config of named blocks.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for every randomized check.")
@click.option("--out", type=click.Path(), default=None, help="CSV report destination.")
@click.option("--tol", type=float, default=1e-8, show_default=True, callback=_tolerance, help="Pass/fail tolerance.")
@click.pass_context
def main(ctx: click.Context, config, seed, out, tol):
    """Finite-scale partial actions, Fell bundles, and amenability checks."""
    ctx.obj = {"config": config, "seed": seed, "out": out, "tol": tol}


def _refuse_unwritable(path: Optional[str]) -> None:
    """Raise the OSError that writing ``path`` would meet, before anything
    runs: the path is a directory, or its parent is missing or not
    writable. Nothing is opened, so an existing file keeps its bytes."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def command(name: Optional[str] = None):
    """Register ``body`` (its options declared by click decorators on it) as a
    subcommand that checks ``--out`` can be written, loads the config, runs
    ``body``, writes the report to ``--out``, echoes its summary and exits 0
    on a pass, 1 on a fail."""

    def register(body: Callable[..., Report]) -> click.Command:
        @functools.wraps(body)
        def run(**options):
            ctx = click.get_current_context()
            try:
                _refuse_unwritable(ctx.obj["out"])
                store = load_config(ctx.obj["config"], ctx.obj["seed"])
                report = body(store, ctx.obj["tol"], **options)
                report.write(ctx.obj["out"], store)
            except ConfigError as exc:
                click.echo(f"config error: {exc}", err=True)
                ctx.exit(2)
            except UnsupportedGroupError as exc:
                click.echo(f"unsupported: {exc}", err=True)
                ctx.exit(3)
            except OSError as exc:  # writing --out or --emit-config
                click.echo(f"config error: cannot write {exc.filename}: {exc.strerror}", err=True)
                ctx.exit(2)
            click.echo(report.summary, err=True)
            ctx.exit(0 if report.passed else 1)

        return main.command(name)(run)

    return register


@command()
@click.argument("target")
@click.option("--window", type=click.IntRange(min=0), default=2, show_default=True, help="Ball radius for sampled axioms.")
@click.option("--samples", type=click.IntRange(min=1), default=2, show_default=True)
def validate(store: ConfigStore, tol: float, target, window, samples) -> Report:
    """Run the validator matching TARGET (a bundle, twist, or action ref)."""
    if target in store.raw.get("bundles", {}):
        kind, obj = "bundle", store.bundle(target)
        _check_ball(obj.group, window, samples)
        rep = validate_bundle(obj, window=window, samples=samples, seed=store.seed, tol=tol)
    elif target in store.raw.get("twists", {}):
        kind, (pa, tw) = "twist", store.twist(target)
        size = _check_ball(pa.group, window)
        if size**3 * pa.algebra.dim > TWIST_CAP:
            raise ConfigError(
                f"the cocycle law on a ball of {size} elements in an algebra of dimension "
                f"{pa.algebra.dim} makes over {TWIST_CAP} terms"
            )
        rep = validate_twist(pa, tw, window=window, tol=tol)
    elif target in store.raw.get("actions", {}):
        kind, pa = "action", store.action(target)
        _check_ball(pa.group, window)
        rep = validate_partial_action(pa, window=window, tol=tol)
    else:
        raise ConfigError(f"no bundle, twist, or action named {target!r}")
    rows = [
        (target, kind, axiom, context, _fval(res))
        for axiom, context, res in rep.rows
    ]
    worst = max(rep.rows, key=lambda r: r[2], default=None)
    rows.append(
        (
            target,
            kind,
            "max-violation",
            worst[1] if worst else "none",
            _fval(rep.max_residual),
        )
    )
    return Report(
        command=f"validate {target}",
        columns=("target", "target_kind", "axiom", "context", "residual"),
        rows=rows,
        summary=f"validate {target} [{kind}]: {rep.render()}",
        passed=rep.passed,
    )


@command()
@click.argument("action")
@click.option("--emit-config", type=click.Path(), default=None, help="Write the enveloping action as a new config document.")
def globalize(store: ConfigStore, tol: float, action, emit_config) -> Report:
    """Compute the enveloping global action of a finite-group ACTION ref."""
    pa = store.action(action)
    if not isinstance(pa.group, FiniteGroup):
        raise UnsupportedGroupError("globalization needs a finite group")
    pre = validate_partial_action(pa, window=2, tol=max(tol, 1e-10))
    columns = ("action", "row", "detail", "residual")
    if not pre.passed:
        return Report(
            command=f"globalize {action}",
            columns=columns,
            rows=[(action, "input-axiom", f"{a}@{c}", _fval(res)) for a, c, res in pre.rows],
            summary=f"globalize {action}: input fails axioms, {pre.render()}",
            passed=False,
        )
    glob = globalize_finite(pa)
    g = pa.group
    rows: List[Tuple[str, ...]] = []
    rows.append((action, "envelope-blocks", " ".join(map(str, glob.algebra.blocks)), _fval(0.0)))
    rows.append((action, "image-blocks", " ".join(map(str, sorted(glob.image_blocks))), _fval(0.0)))
    rows.append(
        (
            action,
            "orbit-span",
            f"rank {glob.orbit_rank} of {glob.algebra_rank}",
            _fval(0.0 if glob.orbit_spans_all else 1.0),
        )
    )
    rows.append((action, "structure", "envelope unitarity", _fval(glob.structure_residual)))
    rows.append((action, "unit-identity", "input action", _fval(unit_identity_residual(pa))))

    sorted_img = sorted(glob.image_blocks)
    reindex = {i: p for p, i in enumerate(sorted_img)}
    corr = {j: reindex[glob.block_of_input_block[j]] for j in range(pa.algebra.nblocks)}
    restricted = restrict_action(glob.action, glob.image_ideal())
    blocks_exact = True
    worst = 0.0
    for t in g.elements():
        phi_in = pa.iso(t).phi
        transported = {corr[j]: corr[k] for j, k in phi_in.items()}
        same = transported == dict(restricted.iso(t).phi)
        blocks_exact = blocks_exact and same
        res = 0.0
        for x in pa.iso(t).source.basis():
            lhs = glob.embed(pa.apply(t, x))
            rhs = glob.action.apply(t, glob.embed(x))
            res = max(res, op_norm(lhs - rhs))
        worst = max(worst, res)
        permuted = " ".join(f"{j}>{k}" for j, k in sorted(glob.action.iso(t).phi.items()))
        rows.append((action, "global-iso", f"{g.format_elem(t)}: {permuted}", _fval(res)))
    rows.append(
        (
            action,
            "round-trip",
            "blocks exact" if blocks_exact else "BLOCK MISMATCH",
            _fval(worst),
        )
    )
    passed = blocks_exact and worst <= max(tol, 1e-10) and glob.orbit_spans_all
    if emit_config is not None:
        _write_envelope_config(store, action, glob, emit_config)
        rows.append((action, "emitted", emit_config, _fval(0.0)))
    return Report(
        command=f"globalize {action}",
        columns=columns,
        rows=rows,
        summary=(
            f"globalize {action}: envelope blocks {glob.algebra.blocks}, "
            f"round-trip residual {worst:.3e}, "
            f"{'pass' if passed else 'FAIL'}"
        ),
        passed=passed,
    )


def _write_envelope_config(store: ConfigStore, action: str, glob, path: str) -> None:
    g = glob.action.group
    isos = {}
    for t in g.elements():
        iso = glob.action.iso(t)
        isos[g.format_elem(t)] = {
            "phi": {str(j): int(k) for j, k in sorted(iso.phi.items())},
            "unitaries": {
                str(j): [[[float(z.real), float(z.imag)] for z in row] for row in iso.unitaries[j]]
                for j in sorted(iso.phi)
            },
        }
    gref = store.raw["actions"][action]["group"]
    doc = {
        "groups": {gref: store.raw["groups"][gref]},
        "algebras": {f"{action}.envelope": {"blocks": [int(d) for d in glob.algebra.blocks]}},
        "actions": {
            f"{action}.global": {
                "kind": "explicit",
                "group": gref,
                "algebra": f"{action}.envelope",
                "isos": isos,
            }
        },
    }
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _parse_targets(bundle: TwistedBundle, text: Optional[str]) -> List[Target]:
    """The basis targets over the listed elements, or over ball(1) when
    there is no list (``default_targets`` at radius 1)."""
    g = bundle.group
    return _basis_targets(bundle, g.ball(1) if text is None else _parse_elems(g, text))


def _acting(g: FreeGroup, targets: List[Elem]) -> List[Elem]:
    """The targets of a boundary-net table; one that acts nowhere is a
    config error."""
    for t in targets:
        if partial_symbol(g, t).domain_zero:
            raise ConfigError(f"target {g.format_elem(t)} acts nowhere")
    return targets


@command("ap-check")
@click.option("--bundle", "bundle_ref", required=True, help="Bundle ref from the config.")
@click.option(
    "--witness",
    "witness_spec",
    required=True,
    help="Family ref, or builtin:uniform | builtin:folner:N | builtin:cuntz:I.",
)
@click.option("--targets", "targets_text", default=None, help="Group elements split on ';', or on ',' when there is no ';'; default: ball(1) basis targets.")
def ap_check(store: ConfigStore, tol: float, bundle_ref, witness_spec, targets_text) -> Report:
    """Defect table of a witness family against fiber targets."""
    b = store.bundle(bundle_ref)
    g = b.group
    spec = witness_spec
    if not spec.startswith("builtin:"):

        def family(fam: dict) -> str:
            kind = fam["kind"]
            if kind == "uniform":
                return "builtin:uniform"
            if kind == "folner":
                return f"builtin:folner:{int(fam['n'])}"
            if kind == "cuntz":
                return f"builtin:cuntz:{int(fam['i'])}"
            raise ConfigError(f"unknown witness family kind {kind!r}")

        spec = store._get("witness_families", spec, family)
    parts = spec.split(":")
    if parts[1] in ("cuntz", "folner") and (
        len(parts) != 3 or not parts[2].isdecimal() or int(parts[2]) < 1
    ):
        raise ConfigError(f"witness {spec!r} needs a parameter of 1 or more, e.g. builtin:{parts[1]}:4")
    if parts[1] == "cuntz":
        if not isinstance(g, FreeGroup):
            raise UnsupportedGroupError("the boundary witness net needs a free group")
        imax = int(parts[2])
        targets = _acting(g, [g.generator(1)] if targets_text is None else _parse_elems(g, targets_text))
        bounds = {
            idx: cantor_witness_bound(xi_witness(idx, g.rank)) for idx in range(1, imax + 1)
        }
        table = cuntz_defect_table(g.rank, imax, targets)
        rows = [
            (str(r.i - 1), r.word, f"1_{r.word}", _fval(bounds[r.i]), _fval(r.defect))
            for r in table
        ]
        worst = max((r.defect for r in table if r.i == imax), default=0.0)
        passed = all(bound <= BOUND_CAP for bound in bounds.values()) and worst <= tol
        measured = f"final defect {worst:.3e}"
    else:
        if parts[1] == "uniform":
            witness = uniform_witness(b)
        elif parts[1] == "folner":
            side = int(parts[2])
            if isinstance(g, LatticeGroup) and side**g.dim > BALL_CAP:
                raise ConfigError(f"the Folner box of side {side} in {g.label} has over {BALL_CAP} elements")
            witness = folner_witness(b, side)
        else:
            raise ConfigError(f"unknown builtin witness {spec!r}")
        verdict = ap_certify(b, [witness], _parse_targets(b, targets_text), tolerance=tol)
        rows = [
            (str(r.index), r.t_label, r.target_label, _fval(r.bound), _fval(r.defect))
            for r in verdict.rows
        ]
        worst = max((r.defect for r in verdict.rows), default=0.0)
        passed = verdict.passed
        measured = f"{len(rows)} rows, max defect {worst:.3e}"
    return Report(
        command=f"ap-check {bundle_ref} {witness_spec}",
        columns=("index", "t", "target", "bound", "defect"),
        rows=rows,
        summary=(
            f"ap-check {bundle_ref} with {witness_spec}: {measured}, "
            f"{'pass' if passed else 'FAIL'} at tol {tol:g}"
        ),
        passed=passed,
    )


@command()
@click.option("--bundle", "bundle_ref", required=True, help="Bundle ref from the config.")
@click.option("--window", type=click.IntRange(min=0), default=2, show_default=True, help="Ball radius of the kernel window.")
@click.option("--samples", type=click.IntRange(min=1), default=5, show_default=True)
def kernels(store: ConfigStore, tol: float, bundle_ref, window, samples) -> Report:
    """Matrix-window report: dimension, sampled norms, shift residuals."""
    b = store.bundle(bundle_ref)
    g = b.group
    _check_ball(g, window, samples)
    win = Window.ball(g, window)
    dim = mf_dim(b, win)
    rng = np.random.default_rng([store.seed, 101])
    ball = g.ball(window)
    rows: List[Tuple[str, ...]] = []
    worst = 0.0
    for s in range(samples):
        h = random_kernel(rng, b, win)
        k = random_kernel(rng, b, win)
        t = ball[int(rng.integers(len(ball)))]
        lhs = beta_act(t, k_mul(h, k))
        rhs = k_mul(beta_act(t, h), beta_act(t, k))
        res = norm2(lhs - rhs) + norm2(beta_act(t, k_star(k)) - k_star(beta_act(t, k)))
        worst = max(worst, res)
        rows.append(
            (
                bundle_ref,
                str(window),
                str(len(win.elements)),
                str(dim),
                str(s),
                _fval(mf_embed_norm(k, win)),
                _fval(res),
            )
        )
    passed = worst <= max(tol, 1e-10)
    return Report(
        command=f"kernels {bundle_ref}",
        columns=("bundle", "radius", "window_size", "mf_dim", "sample", "norm", "beta_residual"),
        rows=rows,
        summary=(
            f"kernels {bundle_ref}: |F|={len(win.elements)}, dim M_F={dim}, "
            f"max shift residual {worst:.3e}, {'pass' if passed else 'FAIL'}"
        ),
        passed=passed,
    )


def _parse_word(grp: FreeGroup, token: str) -> Elem:
    token = token.strip()
    if token in ("", "e"):
        return grp.identity
    letters: List[int] = []
    for ch in token:
        if ch == "'":
            if not letters:
                raise ConfigError(f"dangling inverse mark in {token!r}")
            letters[-1] = -letters[-1]
        else:
            idx = ord(ch) - ord("a") + 1
            if not (1 <= idx <= grp.rank):
                hint = f"; write {ch.lower()}' for the inverse of {ch.lower()}" if "A" <= ch <= "Z" else ""
                raise ConfigError(f"letter {ch!r} outside the rank-{grp.rank} alphabet{hint}")
            letters.append(idx)
    return grp.word(letters)


@command("cuntz-ap")
@click.option("--n", type=int, default=2, show_default=True, help="Alphabet size (free group rank).")
@click.option("--imax", type=click.IntRange(min=1), default=8, show_default=True, help="Largest witness index.")
@click.option("--targets", "targets_text", default="a", show_default=True, help="Comma-separated words; letters a..z, trailing ' inverts.")
def cuntz_ap(store: ConfigStore, tol: float, n, imax, targets_text) -> Report:
    """Defect trace of the boundary witness net on the n-letter shift."""
    if n < 2:
        raise ConfigError("the boundary action needs at least two letters")
    grp = FreeGroup(n)
    targets = _acting(grp, [_parse_word(grp, tok) for tok in targets_text.split(",")])
    table = cuntz_defect_table(n, imax, targets)
    rows = [
        (str(r.i), r.word, _fval(r.defect), _fval(r.predicted), _fval(r.residual))
        for r in table
    ]
    worst = max((abs(r.residual) for r in table if r.predicted >= 0), default=0.0)
    passed = worst <= tol
    return Report(
        command=f"cuntz-ap n={n} imax={imax}",
        columns=("i", "word", "defect", "predicted", "residual"),
        rows=rows,
        summary=(
            f"cuntz-ap n={n} imax={imax}: {len(rows)} rows, "
            f"max law residual {worst:.3e}, {'pass' if passed else 'FAIL'}"
        ),
        passed=passed,
    )


@command()
@click.option("--n", type=int, default=2, show_default=True, help="Alphabet size.")
@click.option("--depth", type=click.IntRange(min=0), default=2, show_default=True, help="Cylinder coarsening depth.")
@click.option("--radius", type=click.IntRange(min=0), default=1, show_default=True, help="Word-length cutoff for acting symbols.")
def groupoid(store: ConfigStore, tol: float, n, depth, radius) -> Report:
    """Enumerate the truncated boundary groupoid and check its axioms."""
    if n < 2:
        raise ConfigError("the boundary action needs at least two letters")
    _check_ball(FreeGroup(n), radius)
    # the identity alone acts on n^depth >= 2^depth cylinders
    if depth >= ARROW_CAP.bit_length() or _arrow_count(n, depth, radius) > ARROW_CAP:
        raise ConfigError(f"the groupoid would have over {ARROW_CAP} arrows")
    table = spectral_groupoid(n, depth, radius)
    rep = validate_groupoid(table)
    rows = [
        (
            str(n),
            str(depth),
            str(radius),
            str(idx),
            table.text(arrow.source),
            table.label(arrow.g),
            table.text(rng),
            "1" if table.is_unit(arrow) else "0",
        )
        for idx, (arrow, rng) in enumerate(zip(table.arrows, table.range_words))
    ]
    return Report(
        command=f"groupoid n={n} depth={depth} radius={radius}",
        columns=("n", "depth", "radius", "index", "source", "symbol", "range", "unit"),
        rows=rows,
        summary=(
            f"groupoid n={n} depth={depth} radius={radius}: "
            f"{len(table.arrows)} arrows, axioms {rep.render()}"
        ),
        passed=rep.passed,
    )


if __name__ == "__main__":
    main(prog_name="fellap")
