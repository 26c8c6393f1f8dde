#!/bin/sh
# Library-surface guard: every name lib/ exports is one a program runs.
#
# Usage: surface_guard.sh
#
# Scans each `val` of lib/**/*.mli (nested module signatures included)
# for a whole-word use of its name in a program — bin/, bench/,
# perfbench/, examples/ or another lib/ module; tests are not programs
# — and fails on any name no program uses unless the allowlist below
# keeps it, with its reason. The scan is crude (a name used under
# another module's prefix counts as used), so it misses names that
# common words shadow; it never misses an unused distinctive one. A
# name that only tests need moves into test/ (a reference model goes to
# test/ref_*.ml), one only its own module needs leaves the .mli, and
# one nothing needs is deleted. An allowlist entry whose name a program
# now uses fails too, so the list never outgrows the library.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)

python3 - "$root" <<'EOF'
import os, re, sys

root = sys.argv[1]

# Module.name -> why the library keeps exporting it with no program caller.
ALLOW = {
    "Io_model.s1_rv_best": "a Section 6.3 / Appendix D.3 closed form (S1, RV best), checked by test_costmodel",
    "Io_model.s1_rv_worst": "a Section 6.3 / Appendix D.3 closed form (S1, RV worst), checked by test_costmodel",
    "Io_model.s1_eca_best": "a Section 6.3 / Appendix D.3 closed form (S1, ECA best), checked by test_costmodel",
    "Io_model.s1_eca_worst": "a Section 6.3 / Appendix D.3 closed form (S1, ECA worst), checked by test_costmodel",
    "Io_model.s2_rv_best": "a Section 6.3 / Appendix D.3 closed form (S2, RV best), checked by test_costmodel",
    "Io_model.s2_rv_worst": "a Section 6.3 / Appendix D.3 closed form (S2, RV worst), checked by test_costmodel",
    "Io_model.s2_eca_best": "a Section 6.3 / Appendix D.3 closed form (S2, ECA best), checked by test_costmodel",
    "Io_model.s2_eca_worst": "a Section 6.3 / Appendix D.3 closed form (S2, ECA worst), checked by test_costmodel",
    "Messages.lca_upper": "LCA's k(k+1) message bound beside Section 6.1's closed forms, checked by test_costmodel",
    "Crossover.first_dominating": "the stable crossover of Figures 6.3-6.5 beside first_at_or_above, checked by test_costmodel",
    "Eca_sm.key_delete_table": "ECA-Local's Section 5.5 class table, which tests compare class by class with Selfmaint.analyze",
    "Parser.parse_view": "parser API: one CREATE VIEW statement against given tables",
    "Parser.parse_tuple": "parser API: one tuple literal",
}

progs = ["bin", "bench", "perfbench", "examples", "lib"]
text = {}
for d in progs:
    for dirpath, _, files in os.walk(os.path.join(root, d)):
        for f in files:
            if f.endswith((".ml", ".mli")):
                p = os.path.join(dirpath, f)
                with open(p) as fh:
                    text[p] = fh.read()

unused = {}
for p in sorted(text):
    rel = os.path.relpath(p, root)
    if not (rel.startswith("lib" + os.sep) and p.endswith(".mli")):
        continue
    stem = p[:-4]
    module = os.path.basename(stem).capitalize()
    for m in re.finditer(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", text[p], re.M):
        name = m.group(1)
        word = re.compile(r"(?<![A-Za-z0-9_'])" + re.escape(name) + r"(?![A-Za-z0-9_'])")
        if not any(word.search(t) for q, t in text.items()
                   if q not in (stem + ".ml", stem + ".mli")):
            unused["%s.%s" % (module, name)] = rel

failed = False
for key, rel in sorted(unused.items()):
    if key in ALLOW:
        print("surface_guard: kept %-28s %s" % (key, ALLOW[key]))
    else:
        print("surface_guard: %s (%s) is exported but no program uses it:"
              " make it private, move it into test/, or delete it" % (key, rel))
        failed = True
for key in sorted(set(ALLOW) - set(unused)):
    print("surface_guard: allowlisted %s is used by a program or gone:"
          " drop its allowlist entry" % key)
    failed = True
if failed:
    sys.exit(1)
print("surface_guard: %d exported names without a program caller, all allowlisted" % len(unused))
EOF
