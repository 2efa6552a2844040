"""Synthetic program generators standing in for the paper's benchmark suite.

The paper measures SPEC95 C programs plus four C++ code bases (Table 1)
and the per-file ambiguity distribution of gcc (Figure 4).  Those sources
are not redistributable here, so we generate MiniC programs with
*controlled* size and typedef-ambiguity density.  The measured quantity —
extra space for explicit ambiguity relative to a disambiguated tree —
depends only on the number and extent of ambiguous constructs, which the
generator controls directly; see DESIGN.md section 4 for the substitution
argument.

Generation is deterministic per seed (`random.Random(seed)`), so every
benchmark run reproduces the same corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class SyntheticSpec:
    """One row of the synthetic Table 1 suite.

    ``target_overhead_pct`` is the space overhead the paper reports for
    the original program; the generator's ambiguity density is chosen to
    land in that neighbourhood so the reproduced table has the same
    shape.
    """

    name: str
    lines: int
    language: str  # "C" or "C++"
    target_overhead_pct: float


# The paper's Table 1 (sizes scaled down ~20x so a pure-Python GLR parse
# of the whole suite stays tractable; the overhead percentage is
# size-independent, so scaling preserves the measurement).
SCALE = 20
TABLE1_SUITE: tuple[SyntheticSpec, ...] = (
    SyntheticSpec("go", 205093 // SCALE, "C", 0.21),
    SyntheticSpec("compress", 29246 // SCALE, "C", 0.10),
    SyntheticSpec("gcc", 31211 // SCALE, "C", 0.00),
    SyntheticSpec("ijpeg", 19915 // SCALE, "C", 0.02),
    SyntheticSpec("m88ksim", 19934 // SCALE, "C", 0.02),
    SyntheticSpec("perl", 26871 // SCALE, "C", 0.01),
    SyntheticSpec("vortex", 67202 // SCALE, "C", 0.00),
    SyntheticSpec("xlisp", 7597 // SCALE, "C", 0.02),
    SyntheticSpec("emacs-19.3", 159921 // SCALE, "C", 0.47),
    SyntheticSpec("ensemble", 294204 // SCALE, "C++", 0.26),
    SyntheticSpec("idl-1.3", 29715 // SCALE, "C++", 0.10),
    SyntheticSpec("ghostscript-3.33", 128368 // SCALE, "C", 0.52),
    SyntheticSpec("tcl-7.3", 26738 // SCALE, "C", 0.31),
)

# Empirical space cost of ambiguity: overhead_pct ~= density * 40 for
# this generator's statement mix (measured); used to pick a density
# hitting a target overhead.
_OVERHEAD_PER_AMBIGUOUS_STMT_PCT = 40.0


def density_for_overhead(target_pct: float) -> float:
    """Ambiguous statements per statement needed for a target overhead."""
    return max(0.0, target_pct / _OVERHEAD_PER_AMBIGUOUS_STMT_PCT)


class MiniCGenerator:
    """Seeded random MiniC source generator."""

    def __init__(self, seed: int = 0, ambiguity_density: float = 0.0) -> None:
        self.rng = random.Random(seed)
        self.ambiguity_density = ambiguity_density
        self._uid = 0

    def fresh(self, prefix: str) -> str:
        self._uid += 1
        return f"{prefix}{self._uid}"

    def expression(self, names: list[str], depth: int = 0) -> str:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.4:
            if names and rng.random() < 0.5:
                return rng.choice(names)
            return str(rng.randrange(100))
        op = rng.choice("+-*/")
        left = self.expression(names, depth + 1)
        right = self.expression(names, depth + 1)
        if rng.random() < 0.2:
            return f"({left} {op} {right})"
        return f"{left} {op} {right}"

    def statement(
        self, vars_: list[str], typedefs: list[str], indent: str
    ) -> str:
        rng = self.rng
        if rng.random() < self.ambiguity_density and (vars_ or typedefs):
            # An ambiguous construct: leading name is a typedef (resolves
            # to a declaration) or a variable (resolves to a call-ish
            # statement); both shapes hit the decl/expr choice point.
            use_typedef = typedefs and (not vars_ or rng.random() < 0.5)
            name = rng.choice(typedefs if use_typedef else vars_)
            arg = self.fresh("x")
            if rng.random() < 0.5:
                return f"{indent}{name} ({arg});"
            return f"{indent}{name} * {arg};"
        choice = rng.random()
        if choice < 0.45 and vars_:
            target = rng.choice(vars_)
            return f"{indent}{target} = {self.expression(vars_)};"
        if choice < 0.65:
            name = self.fresh("v")
            vars_.append(name)
            return f"{indent}int {name};"
        if choice < 0.8 and vars_:
            cond = self.expression(vars_)
            body = rng.choice(vars_)
            return f"{indent}if ({cond}) {body} = {self.expression(vars_)};"
        if vars_:
            return f"{indent}return {self.expression(vars_)};"
        name = self.fresh("v")
        vars_.append(name)
        return f"{indent}int {name};"

    def function(self, typedefs: list[str], n_statements: int) -> str:
        name = self.fresh("fn")
        param = self.fresh("p")
        vars_ = [param]
        lines = [f"int {name}(int {param}) {{"]
        for _ in range(n_statements):
            lines.append(self.statement(vars_, typedefs, "  "))
        lines.append("}")
        return "\n".join(lines)

    def program(self, n_lines: int) -> str:
        """Generate roughly ``n_lines`` lines of MiniC."""
        typedefs: list[str] = []
        chunks: list[str] = []
        total = 0
        for _ in range(max(1, n_lines // 200 + 1)):
            t = self.fresh("T")
            typedefs.append(t)
            chunks.append(f"typedef int {t};")
            total += 1
        while total < n_lines:
            n_statements = self.rng.randrange(5, 15)
            fn = self.function(typedefs, n_statements)
            chunks.append(fn)
            total += fn.count("\n") + 2
        return "\n".join(chunks) + "\n"


def generate_minic(
    lines: int, seed: int = 0, ambiguity_density: float = 0.0
) -> str:
    """Generate a MiniC program of about ``lines`` lines."""
    return MiniCGenerator(seed, ambiguity_density).program(lines)


def generate_suite_program(spec: SyntheticSpec, seed: int = 0) -> str:
    """Generate the synthetic stand-in for one Table 1 row."""
    return generate_minic(
        spec.lines,
        seed=seed ^ hash(spec.name) & 0xFFFF,
        ambiguity_density=density_for_overhead(spec.target_overhead_pct),
    )


def generate_gcc_corpus(
    n_files: int = 60, seed: int = 7, lines_per_file: int = 300
) -> list[tuple[str, str]]:
    """A per-file corpus mimicking Figure 4's gcc source distribution.

    Most files carry little or no ambiguity; a long tail carries more —
    the histogram shape of Figure 4.  Densities are drawn from an
    exponential-ish distribution capped at the paper's observed ~1.2%
    space-overhead ceiling.
    """
    rng = random.Random(seed)
    corpus: list[tuple[str, str]] = []
    for i in range(n_files):
        if rng.random() < 0.3:
            density = 0.0
        else:
            density = min(rng.expovariate(1 / 0.004), 0.02)
        text = generate_minic(
            lines_per_file, seed=seed * 1000 + i, ambiguity_density=density
        )
        corpus.append((f"gcc-file-{i:03d}.c", text))
    return corpus


@dataclass(frozen=True)
class EditStep:
    """One textual splice in an edit script (offset into the text the
    step is applied to, i.e. after all preceding steps)."""

    offset: int
    remove: int
    insert: str
    note: str = ""


def apply_edit_step(text: str, step: EditStep) -> str:
    return text[: step.offset] + step.insert + text[step.offset + step.remove :]


def generate_typedef_edit_script(
    seed: int = 0,
    n_steps: int = 12,
    n_names: int = 4,
    body_statements: int = 6,
) -> tuple[str, list[EditStep]]:
    """A deterministic typedef-heavy edit script for the semantics
    differential suite.

    Produces a MiniC program whose function body is dominated by
    ``T (x);`` ambiguous statements, plus a script of edits that toggle
    the typedef declarations those statements consult, retarget
    statements between names, and append fresh ambiguous statements.
    Typedef names (``Q*``) never collide with ordinary names
    (``u*``/``p*``).

    Each :class:`EditStep` is relative to the text produced by its
    predecessors; replay with :func:`apply_edit_step`.
    """
    rng = random.Random(seed)
    names = [f"Q{i}" for i in range(n_names)]
    header = "".join(f"typedef int {name};\n" for name in names)
    stmts = []  # index -> current statement line (unique by its u<i> arg)
    for i in range(body_statements):
        stmts.append(f"  {names[i % n_names]} (u{i});")
    text = header + "int main(int p0) {\n" + "\n".join(stmts) + "\n}\n"
    base = text
    present = set(names)
    steps: list[EditStep] = []
    for _ in range(n_steps):
        op = rng.random()
        if op < 0.55:
            # Toggle a typedef declaration on or off.
            name = rng.choice(names)
            line = f"typedef int {name};\n"
            if name in present:
                step = EditStep(
                    text.index(line), len(line), "", f"drop typedef {name}"
                )
                present.discard(name)
            else:
                step = EditStep(0, 0, line, f"re-add typedef {name}")
                present.add(name)
        elif op < 0.85 and stmts:
            # Retarget one ambiguous statement to a different name.
            i = rng.randrange(len(stmts))
            new_name = rng.choice(names)
            new_line = f"  {new_name} (u{i});"
            old_line = stmts[i]
            step = EditStep(
                text.index(old_line),
                len(old_line),
                new_line,
                f"retarget u{i} -> {new_name}",
            )
            stmts[i] = new_line
        else:
            # Append a fresh ambiguous statement (and grow the name pool
            # so later toggles can exercise its typedef).
            name = f"Q{len(names)}"
            names.append(name)
            i = len(stmts)
            new_line = f"  {name} (u{i});"
            stmts.append(new_line)
            step = EditStep(
                text.rindex("\n}\n"), 0, "\n" + new_line, f"append u{i}"
            )
        steps.append(step)
        text = apply_edit_step(text, step)
    return base, steps


def generate_calc_program(
    n_statements: int, seed: int = 0
) -> str:
    """A deterministic calculator program for the batch/incremental
    timing experiments (section 5)."""
    rng = random.Random(seed)
    names = ["a"]
    lines = ["a = 1;"]
    for i in range(n_statements - 1):
        if rng.random() < 0.3:
            name = f"n{i}"
            names.append(name)
        else:
            name = rng.choice(names)
        terms = [
            rng.choice(names) if rng.random() < 0.5 else str(rng.randrange(100))
            for _ in range(rng.randrange(1, 5))
        ]
        expr = f" {rng.choice('+-*/')} ".join(terms)
        if rng.random() < 0.15:
            expr = f"({expr}) * {rng.randrange(10)}"
        lines.append(f"{name} = {expr};")
    return "\n".join(lines) + "\n"


# -- grammar-agnostic scenarios (ISSUE 10) ------------------------------------
#
# Every registered grammar gets a line-oriented scenario builder: a
# seeded program generator plus the vocabulary of parse-clean single
# lines the generic edit-script engine splices in.  The engine itself
# (`generate_edit_script`) is language-independent -- it only ever
# inserts, deletes, or replaces *whole lines* the builder vouches for,
# so every intermediate text of a script parses cleanly under its
# grammar.  That property is what lets one script drive the
# differential, fault, and bench suites for any language.


class FullCGenerator(MiniCGenerator):
    """Seeded random FullC source generator.

    Extends the MiniC statement mix with what FullC adds: struct/enum
    declarations, pointer and multi-declarator lists, loops,
    ``break``/``continue``, casts, and indexing.  Every emitted line is
    one complete item (valid both at top level and inside a block),
    which is what lets line-oriented edit scripts splice anywhere.
    """

    def statement(
        self, vars_: list[str], typedefs: list[str], indent: str
    ) -> str:
        rng = self.rng
        if rng.random() < self.ambiguity_density and (vars_ or typedefs):
            # Same ambiguous shapes as MiniC: decl vs call, decl vs
            # multiplication -- the Figure 1 choice point.
            use_typedef = typedefs and (not vars_ or rng.random() < 0.5)
            name = rng.choice(typedefs if use_typedef else vars_)
            arg = self.fresh("x")
            if rng.random() < 0.5:
                return f"{indent}{name} ({arg});"
            return f"{indent}{name} * {arg};"
        choice = rng.random()
        if choice < 0.30 and vars_:
            target = rng.choice(vars_)
            return f"{indent}{target} = {self.expression(vars_)};"
        if choice < 0.42:
            a, b, c = self.fresh("v"), self.fresh("v"), self.fresh("v")
            vars_ += [a, b, c]
            return f"{indent}int {a}, *{b}, {c}[4];"
        if choice < 0.52 and vars_:
            v = rng.choice(vars_)
            return (
                f"{indent}for ({v} = 0; {v} < {rng.randrange(2, 9)}; "
                f"{v} = {v} + 1) {rng.choice(vars_)} = {v};"
            )
        if choice < 0.60 and vars_:
            v = rng.choice(vars_)
            return f"{indent}while ({v}) {v} = {v} - 1;"
        if choice < 0.66 and vars_:
            v = rng.choice(vars_)
            return f"{indent}do {v} = {v} - 1; while ({v} > 0);"
        if choice < 0.74 and vars_:
            v, u = rng.choice(vars_), rng.choice(vars_)
            return f"{indent}{v} = (int *) {u};"
        if choice < 0.80 and vars_:
            cond = self.expression(vars_)
            v = rng.choice(vars_)
            return (
                f"{indent}if ({cond}) {v} = {self.expression(vars_)}; "
                f"else {v} = 0;"
            )
        if choice < 0.86:
            s = self.fresh("S")
            return f"{indent}struct {s} {{ int a; int b; }};"
        if choice < 0.90:
            e = self.fresh("E")
            k = self.fresh("K")
            return f"{indent}enum {e} {{ {k}, {k}x = 3 }};"
        if vars_:
            return f"{indent}return {self.expression(vars_)};"
        name = self.fresh("v")
        vars_.append(name)
        return f"{indent}int {name};"

    def program(self, n_lines: int) -> str:
        typedefs: list[str] = []
        chunks: list[str] = []
        total = 0
        for i in range(max(1, n_lines // 200 + 1)):
            t = self.fresh("T")
            typedefs.append(t)
            # Alternate plain and pointer typedefs.
            star = "*" if i % 2 else ""
            chunks.append(f"typedef int {star}{t};")
            total += 1
        while total < n_lines:
            n_statements = self.rng.randrange(5, 15)
            fn = self.function(typedefs, n_statements)
            chunks.append(fn)
            total += fn.count("\n") + 2
        return "\n".join(chunks) + "\n"


def generate_minifortran(
    lines: int, seed: int = 0, ambiguity_density: float = 0.0
) -> str:
    """A MiniFortran program of about ``lines`` newline-terminated lines.

    ``ambiguity_density`` is the fraction of ``A(I) = e`` statements --
    the array-assignment / statement-function ambiguity the Fortran
    analyzer decides by dimension-ness.
    """
    rng = random.Random(seed)
    arrays: list[str] = []
    scalars = ["x0"]
    out = ["real x0"]
    uid = 0
    for _ in range(max(1, lines - 1)):
        uid += 1
        r = rng.random()
        if r < ambiguity_density and (arrays or scalars):
            pool = arrays + scalars
            name = rng.choice(pool)
            out.append(f"{name}(i{uid}) = {rng.randrange(100)}")
        elif r < ambiguity_density + 0.15:
            name = f"a{uid}"
            arrays.append(name)
            out.append(f"dimension {name}({rng.randrange(2, 20)})")
        elif r < ambiguity_density + 0.3:
            name = f"x{uid}"
            scalars.append(name)
            out.append(f"real {name}")
        elif r < ambiguity_density + 0.4:
            out.append(f"print {rng.choice(scalars)} + {rng.randrange(10)}")
        else:
            target = rng.choice(scalars)
            lhs = rng.choice(scalars)
            out.append(f"{target} = {lhs} * {rng.randrange(100)}")
    return "\n".join(out) + "\n"


class ScenarioBuilder:
    """Per-language program builder + line vocabulary for edit scripts.

    Subclasses say how to build a seeded program, which single lines
    are safe to splice in (``fresh_line``), which lines are *binding*
    declarations whose presence flips ambiguous sites downstream
    (``binding_line``/``is_binding``), and which existing lines may be
    deleted or replaced without breaking nesting (``is_safe``).
    """

    language: str = ""
    supports_insert = True
    supports_delete = True

    def program(
        self, size: int, seed: int = 0, ambiguity_density: float = 0.0
    ) -> str:
        raise NotImplementedError

    def fresh_line(self, rng: random.Random, uid: int) -> str:
        raise NotImplementedError

    def binding_line(self, rng: random.Random, uid: int) -> str | None:
        return None

    def is_binding(self, line: str) -> bool:
        return False

    def is_safe(self, line: str) -> bool:
        stripped = line.strip()
        return bool(stripped) and "{" not in stripped and "}" not in stripped


class _CalcBuilder(ScenarioBuilder):
    language = "calc"

    def program(self, size, seed=0, ambiguity_density=0.0):
        return generate_calc_program(size, seed)

    def fresh_line(self, rng, uid):
        return f"g{uid} = {rng.randrange(100)};"

    def is_safe(self, line):
        stripped = line.strip()
        return stripped.endswith(";")


class _MiniCBuilder(ScenarioBuilder):
    language = "minic"

    def program(self, size, seed=0, ambiguity_density=0.0):
        return generate_minic(size, seed, ambiguity_density)

    def fresh_line(self, rng, uid):
        roll = rng.random()
        if roll < 0.4:
            return f"int g{uid};"
        if roll < 0.7:
            return f"g{uid} = {rng.randrange(100)};"
        return f"typedef int G{uid};"

    def binding_line(self, rng, uid):
        return f"typedef int G{uid};"

    def is_binding(self, line):
        return line.strip().startswith("typedef ")

    def is_safe(self, line):
        stripped = line.strip()
        return (
            stripped.endswith(";")
            and "{" not in stripped
            and "}" not in stripped
        )


class _FullCBuilder(_MiniCBuilder):
    language = "fullc"

    def program(self, size, seed=0, ambiguity_density=0.0):
        return FullCGenerator(seed, ambiguity_density).program(size)

    def fresh_line(self, rng, uid):
        roll = rng.random()
        if roll < 0.25:
            return f"int g{uid}, *h{uid}, k{uid}[2];"
        if roll < 0.45:
            return f"struct G{uid} {{ int a; }};"
        if roll < 0.6:
            return f"enum H{uid} {{ M{uid} }};"
        if roll < 0.8:
            return f"g{uid} = (int *) {rng.randrange(100)};"
        return f"typedef int *G{uid};"

    def is_safe(self, line):
        # Single-line struct/enum bodies carry braces but are still
        # complete items; everything ending in ';' is safe.
        stripped = line.strip()
        return stripped.endswith(";")


class _MiniFortranBuilder(ScenarioBuilder):
    language = "minifortran"

    def program(self, size, seed=0, ambiguity_density=0.0):
        return generate_minifortran(size, seed, ambiguity_density)

    def fresh_line(self, rng, uid):
        if rng.random() < 0.5:
            return f"y{uid} = {rng.randrange(100)}"
        return f"print {rng.randrange(100)}"

    def binding_line(self, rng, uid):
        return f"dimension b{uid}({rng.randrange(2, 20)})"

    def is_binding(self, line):
        return line.strip().startswith("dimension ")

    def is_safe(self, line):
        # Every MiniFortran line is one complete statement (the empty
        # statement included), so any line may go.
        return True


class _Lr2Builder(ScenarioBuilder):
    """The Figure 7 grammar accepts exactly one sentence, so the only
    scripted gesture is flipping it between its two derivations."""

    language = "lr2"
    supports_insert = False
    supports_delete = False  # the single sentence must remain

    def program(self, size, seed=0, ambiguity_density=0.0):
        return "x z c\n" if random.Random(seed).random() < 0.5 else "x z e\n"

    def fresh_line(self, rng, uid):
        return "x z c" if rng.random() < 0.5 else "x z e"

    def is_safe(self, line):
        return bool(line.strip())


SCENARIO_BUILDERS: dict[str, ScenarioBuilder] = {
    builder.language: builder
    for builder in (
        _CalcBuilder(),
        _FullCBuilder(),
        _Lr2Builder(),
        _MiniCBuilder(),
        _MiniFortranBuilder(),
    )
}


def generate_program(
    language: str,
    size: int,
    seed: int = 0,
    ambiguity_density: float = 0.0,
) -> str:
    """A parse-clean program for any registered grammar.

    ``size`` is approximate lines (statements for calc; ignored for
    lr2, whose grammar accepts exactly one sentence).  Deterministic
    per ``(language, size, seed, ambiguity_density)``.
    """
    builder = SCENARIO_BUILDERS.get(language)
    if builder is None:
        known = ", ".join(sorted(SCENARIO_BUILDERS))
        raise KeyError(f"no scenario builder for {language!r} (known: {known})")
    return builder.program(size, seed, ambiguity_density)


def _line_offset(lines: list[str], index: int) -> int:
    return sum(len(line) + 1 for line in lines[:index])


def generate_edit_script(
    language: str,
    text: str,
    seed: int = 0,
    n_steps: int = 8,
) -> list[EditStep]:
    """A seeded random edit script valid against ``text``.

    Steps are whole-line gestures -- insert a fresh line, delete or
    replace a safe line, toggle a binding declaration (typedef,
    ``dimension``) -- so every intermediate text parses cleanly under
    the grammar.  Each step's offsets are relative to the text produced
    by its predecessors; replay with :func:`apply_edit_step`.
    Deterministic per ``(language, text, seed, n_steps)``.
    """
    builder = SCENARIO_BUILDERS.get(language)
    if builder is None:
        known = ", ".join(sorted(SCENARIO_BUILDERS))
        raise KeyError(f"no scenario builder for {language!r} (known: {known})")
    rng = random.Random(seed)
    # ``lines`` mirrors the current text: text == "\n".join(lines) and,
    # when the text is newline-terminated, lines[-1] == "".
    lines = text.split("\n")
    # Indices eligible for insertion (before the trailing empty tail).
    tail = 1 if lines and lines[-1] == "" else 0
    steps: list[EditStep] = []
    uid = 0
    for _ in range(n_steps):
        uid += 1
        safe = [
            i for i in range(len(lines) - tail) if builder.is_safe(lines[i])
        ]
        bindings = [
            i for i in range(len(lines) - tail) if builder.is_binding(lines[i])
        ]
        ops = []
        if builder.supports_insert:
            ops.append("insert")
        if safe:
            ops.append("replace")
            if builder.supports_delete:
                ops.append("delete")
        # Probe with a throwaway Random so availability checks never
        # consume script entropy.
        if bindings or builder.binding_line(random.Random(0), 0) is not None:
            ops.append("toggle")
        if not ops:
            break
        op = rng.choice(ops)
        if op == "insert":
            index = rng.randrange(len(lines) - tail + 1)
            content = builder.fresh_line(rng, uid)
            steps.append(
                EditStep(
                    _line_offset(lines, index),
                    0,
                    content + "\n",
                    f"insert {content!r}",
                )
            )
            lines.insert(index, content)
        elif op == "delete":
            index = rng.choice(safe)
            line = lines[index]
            steps.append(
                EditStep(
                    _line_offset(lines, index),
                    len(line) + 1,
                    "",
                    f"delete {line!r}",
                )
            )
            lines.pop(index)
        elif op == "replace":
            index = rng.choice(safe)
            content = builder.fresh_line(rng, uid)
            steps.append(
                EditStep(
                    _line_offset(lines, index),
                    len(lines[index]),
                    content,
                    f"replace with {content!r}",
                )
            )
            lines[index] = content
        else:  # toggle a binding declaration
            if bindings and (rng.random() < 0.5 or not builder.supports_insert):
                index = rng.choice(bindings)
                line = lines.pop(index)
                steps.append(
                    EditStep(
                        _line_offset(
                            lines[:index] + [line] + lines[index:], index
                        ),
                        len(line) + 1,
                        "",
                        f"drop binding {line!r}",
                    )
                )
            else:
                content = builder.binding_line(rng, uid)
                steps.append(
                    EditStep(0, 0, content + "\n", f"add binding {content!r}")
                )
                lines.insert(0, content)
    return steps


def generate_scenario(
    language: str,
    size: int = 40,
    seed: int = 0,
    ambiguity_density: float = 0.0,
    n_steps: int = 8,
) -> tuple[str, list[EditStep]]:
    """Program plus edit script in one call (shared seed)."""
    text = generate_program(language, size, seed, ambiguity_density)
    return text, generate_edit_script(language, text, seed, n_steps)
