"""Batch driver: named objects in a JSON config, commands to CSV reports.

One config document declares groups, algebras, actions, twists, bundles and
witness families as named blocks; commands resolve references, run the
corresponding validators or evaluators, and emit a CSV whose every row
repeats the command, config hash and seed, so a row can be re-run on its
own.  Identical (config, seed, command) input produces byte-identical
output.  Exit codes: 0 pass, 1 validation or certification failure,
2 config or usage error, 3 unsupported construction for the given group.

The config grammar is documented in the README; numbers are plain decimal,
complex scalars are [re, im] pairs, matrices are nested lists of those.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
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
from .approx import Target, ap_certify, default_targets, folner_witness, uniform_witness
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
        raise ConfigError(f"cannot read {v!r} as a complex value")
    if not cmath.isfinite(z):
        raise ConfigError(f"{v!r} is not a finite complex value")
    return z


def _as_matrix(rows) -> np.ndarray:
    return np.array([[_as_complex(v) for v in row] for row in rows], dtype=complex)


@dataclass
class ConfigStore:
    raw: dict
    sha: str
    groups: Dict[str, Group] = field(default_factory=dict)
    algebras: Dict[str, FdAlgebra] = field(default_factory=dict)
    actions: Dict[str, PartialAction] = field(default_factory=dict)
    twists: Dict[str, Tuple[PartialAction, Twist]] = field(default_factory=dict)
    bundles: Dict[str, TwistedBundle] = field(default_factory=dict)
    seed: int = 0

    def _block(self, section: str, name: str) -> dict:
        spec = self.raw.get(section, {}).get(name)
        if spec is None:
            raise ConfigError(f"no {section} entry named {name!r}")
        if not isinstance(spec, dict) or "kind" not in spec and section not in ("algebras",):
            raise ConfigError(f"{section}.{name} must be an object with a 'kind'")
        return spec

    def _rng(self, spec: dict) -> np.random.Generator:
        return np.random.default_rng([self.seed, int(spec.get("salt", 0))])

    def group(self, name: str) -> Group:
        if name in self.groups:
            return self.groups[name]
        spec = self._block("groups", name)
        kind = spec["kind"]
        if kind == "cyclic":
            g: Group = cyclic_group(int(spec["order"]))
        elif kind == "symmetric":
            g = symmetric_group(int(spec["n"]))
        elif kind == "lattice":
            g = LatticeGroup(int(spec["dim"]))
        elif kind == "free":
            g = FreeGroup(int(spec["rank"]))
        else:
            raise ConfigError(f"unknown group kind {kind!r}")
        self.groups[name] = g
        return g

    def algebra(self, name: str) -> FdAlgebra:
        if name in self.algebras:
            return self.algebras[name]
        spec = self._block("algebras", name)
        blocks = spec.get("blocks")
        if not blocks:
            raise ConfigError(f"algebras.{name} needs a nonempty 'blocks' list")
        alg = FdAlgebra([int(d) for d in blocks])
        self.algebras[name] = alg
        return alg

    def action(self, name: str) -> PartialAction:
        if name in self.actions:
            return self.actions[name]
        spec = self._block("actions", name)
        kind = spec["kind"]
        if kind == "trivial":
            pa = trivial_partial_action(self.group(spec["group"]), self.algebra(spec["algebra"]))
        elif kind == "identity":
            pa = identity_action(self.group(spec["group"]), self.algebra(spec["algebra"]))
        elif kind == "translation":
            g = self.group(spec["group"])
            if not isinstance(g, FiniteGroup):
                raise ConfigError("translation actions need a finite group")
            pa = translation_action(g, self.algebra(spec["algebra"]))
        elif kind == "random":
            g = self.group(spec["group"])
            if not isinstance(g, FiniteGroup):
                raise ConfigError("random actions need a finite group")
            blocks = [int(d) for d in spec["blocks"]] if "blocks" in spec else None
            pa = random_partial_action(self._rng(spec), g, blocks)
        elif kind == "random-global":
            g = self.group(spec["group"])
            if not isinstance(g, FiniteGroup):
                raise ConfigError("random global actions need a finite group")
            blocks = [int(d) for d in spec["blocks"]] if "blocks" in spec else None
            pa = random_global_action(self._rng(spec), g, blocks)
        elif kind == "explicit":
            pa = self._explicit_action(name, spec)
        else:
            raise ConfigError(f"unknown action kind {kind!r}")
        self.actions[name] = pa
        return pa

    def _explicit_action(self, name: str, spec: dict) -> PartialAction:
        g = self.group(spec["group"])
        if not isinstance(g, FiniteGroup):
            raise ConfigError("explicit actions are finite-group only")
        alg = self.algebra(spec["algebra"])
        isos = spec.get("isos")
        if not isinstance(isos, dict):
            raise ConfigError(f"actions.{name} needs an 'isos' table")
        table: Dict[Elem, IdealIso] = {}
        for text, data in isos.items():
            t = g.parse_elem(text)
            where = f"actions.{name}.isos.{text}"
            try:
                phi = {int(j): int(k) for j, k in data["phi"].items()}
                unis = {int(j): _as_matrix(m) for j, m in data["unitaries"].items()}
                table[t] = IdealIso(
                    Ideal(alg, phi.keys()), Ideal(alg, phi.values()), phi, unis
                )
            except KeyError as exc:
                raise ConfigError(f"{where}: no entry {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        missing = [t for t in g.elements() if t not in table]
        if missing:
            raise ConfigError(
                f"actions.{name} missing isos for {len(missing)} group elements"
            )
        return PartialAction(g, alg, table)

    def twist(self, name: str) -> Tuple[PartialAction, Twist]:
        if name in self.twists:
            return self.twists[name]
        spec = self._block("twists", name)
        pa = self.action(spec["action"])
        kind = spec["kind"]
        if kind == "trivial":
            tw = trivial_twist(pa)
        elif kind == "scalar":
            tw = scalar_coboundary_twist(pa, int(spec.get("salt", 0)))
        else:
            raise ConfigError(f"unknown twist kind {kind!r}")
        perturb = spec.get("perturb")
        if perturb:
            g = pa.group
            s0 = g.parse_elem(str(perturb["s"]))
            t0 = g.parse_elem(str(perturb["t"]))
            phase = complex(np.exp(1j * float(perturb.get("scale", 1e-3))))
            base = tw

            def fn_many(pairs: list) -> tuple:
                batch = base.take(base.rows(pairs))
                if (s0, t0) in pairs:
                    i = pairs.index((s0, t0))
                    for p in batch:
                        p[i] = phase * p[i]
                return batch

            tw = Twist.batched(pa.algebra, fn_many)
        self.twists[name] = (pa, tw)
        return pa, tw

    def bundle(self, name: str) -> TwistedBundle:
        if name in self.bundles:
            return self.bundles[name]
        spec = self._block("bundles", name)
        kind = spec["kind"]
        if kind == "group":
            b = group_bundle(self.group(spec["group"]), self.algebra(spec["algebra"]))
        elif kind == "semidirect":
            b = make_semidirect(self.action(spec["action"]))
        elif kind == "twisted":
            pa, tw = self.twist(spec["twist"])
            b = make_twisted(pa, tw)
        elif kind == "random":
            g = self.group(spec["group"]) if "group" in spec else None
            b, _ = random_fell_bundle(self._rng(spec), g, spec.get("flavor"))
        else:
            raise ConfigError(f"unknown bundle kind {kind!r}")
        self.bundles[name] = b
        return b


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
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object of named blocks")
    return ConfigStore(raw=raw, sha=hashlib.sha256(blob).hexdigest()[:12], seed=seed)


@dataclass
class Report:
    command: str
    config_sha: str
    seed: int
    columns: Tuple[str, ...]
    rows: List[Tuple[str, ...]]
    summary: str
    passed: bool

    def write(self, out: Optional[str]) -> None:
        if out is None:
            return
        stamp = (self.command, self.config_sha, str(self.seed))
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("command", "config", "seed") + self.columns)
            for row in self.rows:
                writer.writerow(stamp + tuple(row))


def _finish(ctx: click.Context, report: Report, fail_code: int = 1) -> None:
    report.write(ctx.obj["out"])
    click.echo(report.summary, err=True)
    ctx.exit(0 if report.passed else fail_code)


def _store(ctx: click.Context) -> ConfigStore:
    return load_config(ctx.obj["config"], ctx.obj["seed"])


@click.group()
@click.option("--config", type=click.Path(), default=None, help="JSON config of named blocks.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for every randomized check.")
@click.option("--out", type=click.Path(), default=None, help="CSV report destination.")
@click.option("--tol", type=float, default=1e-8, show_default=True, help="Pass/fail tolerance.")
@click.pass_context
def main(ctx: click.Context, config, seed, out, tol):
    """Finite-scale partial actions, Fell bundles, and amenability checks."""
    ctx.obj = {"config": config, "seed": seed, "out": out, "tol": tol}


def _run(ctx, body: Callable[[], None]) -> None:
    try:
        body()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        ctx.exit(2)
    except UnsupportedGroupError as exc:
        click.echo(f"unsupported: {exc}", err=True)
        ctx.exit(3)


@main.command()
@click.argument("target")
@click.option("--window", type=click.IntRange(min=0), default=2, show_default=True, help="Ball radius for sampled axioms.")
@click.option("--samples", type=click.IntRange(min=1), default=2, show_default=True)
@click.pass_context
def validate(ctx, target, window, samples):
    """Run the validator matching TARGET (a bundle, twist, or action ref)."""

    def body():
        store = _store(ctx)
        tol = ctx.obj["tol"]
        raw = store.raw
        if target in raw.get("bundles", {}):
            kind, obj = "bundle", store.bundle(target)
            rep = validate_bundle(obj, window=window, samples=samples, seed=store.seed, tol=tol)
        elif target in raw.get("twists", {}):
            kind = "twist"
            pa, tw = store.twist(target)
            rep = validate_twist(pa, tw, window=window, tol=tol)
        elif target in raw.get("actions", {}):
            kind = "action"
            rep = validate_partial_action(store.action(target), window=window, tol=tol)
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
        report = Report(
            command=f"validate {target}",
            config_sha=store.sha,
            seed=store.seed,
            columns=("target", "target_kind", "axiom", "context", "residual"),
            rows=rows,
            summary=f"validate {target} [{kind}]: {rep.render()}",
            passed=rep.passed,
        )
        _finish(ctx, report)

    _run(ctx, body)


@main.command()
@click.argument("action")
@click.option("--emit-config", type=click.Path(), default=None, help="Write the enveloping action as a new config document.")
@click.pass_context
def globalize(ctx, action, emit_config):
    """Compute the enveloping global action of a finite-group ACTION ref."""

    def body():
        store = _store(ctx)
        tol = ctx.obj["tol"]
        spec = store._block("actions", action)
        pa = store.action(action)
        if not isinstance(pa.group, FiniteGroup):
            raise UnsupportedGroupError("globalization needs a finite group")
        pre = validate_partial_action(pa, window=2, tol=max(tol, 1e-10))
        rows: List[Tuple[str, ...]] = []
        if not pre.passed:
            for axiom, context, res in pre.rows:
                rows.append((action, "input-axiom", f"{axiom}@{context}", _fval(res)))
            report = Report(
                command=f"globalize {action}",
                config_sha=store.sha,
                seed=store.seed,
                columns=("action", "row", "detail", "residual"),
                rows=rows,
                summary=f"globalize {action}: input fails axioms, {pre.render()}",
                passed=False,
            )
            _finish(ctx, report)
            return
        glob = globalize_finite(pa)
        g = pa.group
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
            _write_envelope_config(store, action, spec, glob, emit_config)
            rows.append((action, "emitted", emit_config, _fval(0.0)))
        report = Report(
            command=f"globalize {action}",
            config_sha=store.sha,
            seed=store.seed,
            columns=("action", "row", "detail", "residual"),
            rows=rows,
            summary=(
                f"globalize {action}: envelope blocks {glob.algebra.blocks}, "
                f"round-trip residual {worst:.3e}, "
                f"{'pass' if passed else 'FAIL'}"
            ),
            passed=passed,
        )
        _finish(ctx, report)

    _run(ctx, body)


def _write_envelope_config(store: ConfigStore, action: str, spec: dict, glob, path: str) -> None:
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
    gref = spec["group"]
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
    if text is None:
        return default_targets(bundle, radius=1)
    g = bundle.group
    out: List[Target] = []
    for token in text.split(","):
        t = g.parse_elem(token.strip())
        basis = bundle.fiber_ideal(t).basis()
        for i, b in enumerate(basis):
            out.append(Target(t, b, f"{g.format_elem(t)}#b{i}"))
    return out


@main.command("ap-check")
@click.option("--bundle", "bundle_ref", required=True, help="Bundle ref from the config.")
@click.option(
    "--witness",
    "witness_spec",
    required=True,
    help="Family ref, or builtin:uniform | builtin:folner:N | builtin:cuntz:I.",
)
@click.option("--targets", "targets_text", default=None, help="Comma-separated group elements; default: ball(1) basis targets.")
@click.pass_context
def ap_check(ctx, bundle_ref, witness_spec, targets_text):
    """Defect table of a witness family against fiber targets."""

    def body():
        store = _store(ctx)
        tol = ctx.obj["tol"]
        b = store.bundle(bundle_ref)
        spec = witness_spec
        if not spec.startswith("builtin:"):
            fam_spec = store._block("witness_families", spec)
            kind = fam_spec["kind"]
            if kind == "uniform":
                spec = "builtin:uniform"
            elif kind == "folner":
                spec = f"builtin:folner:{int(fam_spec['n'])}"
            elif kind == "cuntz":
                spec = f"builtin:cuntz:{int(fam_spec['i'])}"
            else:
                raise ConfigError(f"unknown witness family kind {kind!r}")
        parts = spec.split(":")
        if parts[1] in ("cuntz", "folner") and (len(parts) != 3 or not parts[2].isdigit()):
            raise ConfigError(f"witness {spec!r} needs a numeric parameter, e.g. builtin:{parts[1]}:4")
        if parts[1] == "cuntz":
            _ap_check_cuntz(ctx, store, b, bundle_ref, witness_spec, int(parts[2]), targets_text, tol)
            return
        if parts[1] == "uniform":
            family = [uniform_witness(b)]
        elif parts[1] == "folner":
            family = [folner_witness(b, int(parts[2]))]
        else:
            raise ConfigError(f"unknown builtin witness {spec!r}")
        targets = _parse_targets(b, targets_text)
        verdict = ap_certify(b, family, targets, tolerance=tol)
        rows = [
            (str(r.index), r.t_label, r.target_label, _fval(r.bound), _fval(r.defect))
            for r in verdict.rows
        ]
        worst = max((r.defect for r in verdict.rows), default=0.0)
        report = Report(
            command=f"ap-check {bundle_ref} {witness_spec}",
            config_sha=store.sha,
            seed=store.seed,
            columns=("index", "t", "target", "bound", "defect"),
            rows=rows,
            summary=(
                f"ap-check {bundle_ref} with {witness_spec}: "
                f"{len(rows)} rows, max defect {worst:.3e}, "
                f"{'pass' if verdict.passed else 'FAIL'} at tol {tol:g}"
            ),
            passed=verdict.passed,
        )
        _finish(ctx, report)

    _run(ctx, body)


def _ap_check_cuntz(ctx, store, b, bundle_ref, witness_spec, imax, targets_text, tol):
    g = b.group
    if not isinstance(g, FreeGroup):
        raise UnsupportedGroupError("the boundary witness net needs a free group")
    if targets_text is None:
        targets = [g.generator(1)]
    else:
        targets = [g.parse_elem(tok.strip()) for tok in targets_text.split(",")]
    for t in targets:
        if partial_symbol(g, t).domain_zero:
            raise ConfigError(f"target {g.format_elem(t)} acts nowhere")
    bounds = {
        idx: cantor_witness_bound(xi_witness(idx, g.rank)) for idx in range(1, imax + 1)
    }
    table = cuntz_defect_table(g.rank, imax, targets)
    rows = [
        (str(r.i - 1), r.word, f"1_{r.word}", _fval(bounds[r.i]), _fval(r.defect))
        for r in table
    ]
    worst_final = max((r.defect for r in table if r.i == imax), default=0.0)
    bound_ok = all(bound <= 1.0 + 1e-8 for bound in bounds.values())
    passed = bound_ok and worst_final <= tol
    report = Report(
        command=f"ap-check {bundle_ref} {witness_spec}",
        config_sha=store.sha,
        seed=store.seed,
        columns=("index", "t", "target", "bound", "defect"),
        rows=rows,
        summary=(
            f"ap-check {bundle_ref} with {witness_spec}: final defect "
            f"{worst_final:.3e}, {'pass' if passed else 'FAIL'} at tol {tol:g}"
        ),
        passed=passed,
    )
    _finish(ctx, report)


@main.command()
@click.option("--bundle", "bundle_ref", required=True, help="Bundle ref from the config.")
@click.option("--window", type=click.IntRange(min=0), default=2, show_default=True, help="Ball radius of the kernel window.")
@click.option("--samples", type=click.IntRange(min=1), default=5, show_default=True)
@click.pass_context
def kernels(ctx, bundle_ref, window, samples):
    """Matrix-window report: dimension, sampled norms, shift residuals."""

    def body():
        store = _store(ctx)
        tol = ctx.obj["tol"]
        b = store.bundle(bundle_ref)
        g = b.group
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
        report = Report(
            command=f"kernels {bundle_ref}",
            config_sha=store.sha,
            seed=store.seed,
            columns=("bundle", "radius", "window_size", "mf_dim", "sample", "norm", "beta_residual"),
            rows=rows,
            summary=(
                f"kernels {bundle_ref}: |F|={len(win.elements)}, dim M_F={dim}, "
                f"max shift residual {worst:.3e}, {'pass' if passed else 'FAIL'}"
            ),
            passed=passed,
        )
        _finish(ctx, report)

    _run(ctx, body)


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
            idx = ord(ch.lower()) - ord("a") + 1
            if not (1 <= idx <= grp.rank):
                raise ConfigError(f"letter {ch!r} outside the rank-{grp.rank} alphabet")
            letters.append(idx)
    return grp.word(letters)


@main.command("cuntz-ap")
@click.option("--n", type=int, default=2, show_default=True, help="Alphabet size (free group rank).")
@click.option("--imax", type=click.IntRange(min=1), default=8, show_default=True, help="Largest witness index.")
@click.option("--targets", "targets_text", default="a", show_default=True, help="Comma-separated words; letters a..z, trailing ' inverts.")
@click.pass_context
def cuntz_ap(ctx, n, imax, targets_text):
    """Defect trace of the boundary witness net on the n-letter shift."""

    def body():
        store = _store(ctx)
        tol = ctx.obj["tol"]
        if n < 2:
            raise ConfigError("the boundary action needs at least two letters")
        grp = FreeGroup(n)
        targets = [_parse_word(grp, tok) for tok in targets_text.split(",")]
        for t in targets:
            if partial_symbol(grp, t).domain_zero:
                raise ConfigError(f"target {grp.format_elem(t)} acts nowhere")
        table = cuntz_defect_table(n, imax, targets)
        rows = [
            (str(r.i), r.word, _fval(r.defect), _fval(r.predicted), _fval(r.residual))
            for r in table
        ]
        worst = max((abs(r.residual) for r in table if r.predicted >= 0), default=0.0)
        passed = worst <= tol
        report = Report(
            command=f"cuntz-ap n={n} imax={imax}",
            config_sha=store.sha,
            seed=store.seed,
            columns=("i", "word", "defect", "predicted", "residual"),
            rows=rows,
            summary=(
                f"cuntz-ap n={n} imax={imax}: {len(rows)} rows, "
                f"max law residual {worst:.3e}, {'pass' if passed else 'FAIL'}"
            ),
            passed=passed,
        )
        _finish(ctx, report)

    _run(ctx, body)


@main.command()
@click.option("--n", type=int, default=2, show_default=True, help="Alphabet size.")
@click.option("--depth", type=click.IntRange(min=0), default=2, show_default=True, help="Cylinder coarsening depth.")
@click.option("--radius", type=click.IntRange(min=0), default=1, show_default=True, help="Word-length cutoff for acting symbols.")
@click.pass_context
def groupoid(ctx, n, depth, radius):
    """Enumerate the truncated boundary groupoid and check its axioms."""

    def body():
        store = _store(ctx)
        if n < 2:
            raise ConfigError("the boundary action needs at least two letters")
        table = spectral_groupoid(n, depth, radius)
        rep = validate_groupoid(table)
        rows: List[Tuple[str, ...]] = []
        for idx, (arrow, rng) in enumerate(zip(table.arrows, table.range_words)):
            rows.append(
                (
                    str(n),
                    str(depth),
                    str(radius),
                    str(idx),
                    "".join(map(str, arrow.source)),
                    table.label(arrow.g),
                    "".join(map(str, rng)),
                    "1" if table.is_unit(arrow) else "0",
                )
            )
        report = Report(
            command=f"groupoid n={n} depth={depth} radius={radius}",
            config_sha=store.sha,
            seed=store.seed,
            columns=("n", "depth", "radius", "index", "source", "symbol", "range", "unit"),
            rows=rows,
            summary=(
                f"groupoid n={n} depth={depth} radius={radius}: "
                f"{len(table.arrows)} arrows, axioms {rep.render()}"
            ),
            passed=rep.passed,
        )
        _finish(ctx, report)

    _run(ctx, body)


if __name__ == "__main__":
    main(prog_name="fellap")
