"""Mutation harness: each mutant in MUTANTS is one small edit to the source
that some test must catch.

For each mutant, copy_checkout, which tests/coverage_map.py shares, copies
src/, tests/, bench/ (whose uses of the package count in
tests/test_source.py) and pyproject.toml to a temporary directory, the
edit is applied there, and the mutant's tests run with pytest -x -q under
a per-mutant timeout, one pytest process at a time.  A mutant's tests are
test files or pytest node ids (file::test), so that a mutant whose file is
slow runs only the tests that kill it.  A run with a failing test kills the
mutant; a passing run lets it survive.  The unmutated copy runs the same
tests first, so that a failure is the mutant's.  One line is printed per
mutant and a summary at the end; the exit status is non-zero when any
mutant is not killed.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

tests/test_source.py checks that each old text occurs exactly once in its
file, and that each test file named exists, so a refactor that moves the
code must update this table.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str     # the file edited, relative to the repository root
    old: str      # text that occurs exactly once in that file
    new: str
    tests: tuple  # test files or node ids, relative to tests/; one should fail


ERRORS = "src/ramspect/errors.py"
SEEDING = "src/ramspect/seeding.py"
RULES = ("test_param_rules.py",)
ORACLE = "src/ramspect/spectrum_oracle.py"
CLI = "src/ramspect/cli.py"
UNREAD = ("test_cli.py::test_a_source_refuses_each_flag_it_does_not_read",)
DEFAULTS = ("test_cli.py::test_p_and_graph_seed_left_out_read_as_one_half_and_zero",)
WALK = ("test_spectrum_oracle.py",)
CONSTRUCT = "src/ramspect/ramsey_construct.py"
GRAPH = "src/ramspect/graph_core.py"
PAIRS = ("test_ramsey_construct.py",)
AUDIT = "src/ramspect/structure_audit.py"
SCREEN = ("test_structure_audit.py",)
# on the whole file, two screen mutants spend most of a minute while
# hypothesis shrinks the failures; they run only the tests that kill them
OPEN_RECOUNT = ("test_structure_audit.py::test_richness_audit_builds_no_n_by_n_matrix",)
SECOND_PRODUCT = ("test_structure_audit.py::test_screened_bad_counts_match_the_whole_row_product",)
EXPOSE = "src/ramspect/double_exposure.py"
TABLE = ("test_double_exposure.py",)
AC = "src/ramspect/anticoncentration.py"
SPLIT = ("test_anticoncentration.py",)
PLANES = ("test_anticoncentration.py::test_plane_sums_match_the_product_loop",)
LAYOUT = tuple(f"test_graph_core.py::{t}" for t in (
    "test_pack_bools_inverts_unpack_and_zeroes_the_bits_past_n",
    "test_bits_at_reads_the_bits_of_int_rows", "test_gathered_popcount_matches_the_int_row_loop"))

MUTANTS = (
    # the parameter rules of errors._require
    Mutant("positive: > flipped to >=", ERRORS,
           "elif not v > 0:", "elif not v >= 0:", RULES),
    Mutant("positive: NaN let through", ERRORS,
           "elif not v > 0:", "elif v <= 0:", RULES),
    Mutant("count: maxsize bound dropped", ERRORS,
           'elif rule == "count" and v > sys.maxsize:', "elif False:", RULES),
    Mutant("count: maxsize bound flipped to >=", ERRORS,
           'rule == "count" and v > sys.maxsize', 'rule == "count" and v >= sys.maxsize',
           RULES),
    Mutant("number: NaN check dropped", ERRORS,
           "if math.isnan(v):", "if False:", RULES),
    Mutant("non-negative: >= flipped to >", ERRORS,
           "if not v >= 0:", "if not v > 0:", RULES),
    Mutant("non-negative: NaN let through", ERRORS,
           "if not v >= 0:", "if v < 0:", RULES),
    Mutant("cli: --seed left unchecked", CLI,
           '{"seed": getattr(ns, "seed", None),', "{", ("test_cli.py",)),
    Mutant("cli: --graph-seed left unchecked", CLI,
           '"graph_seed": getattr(ns, "graph_seed", None)', '"graph_seed": None',
           ("test_cli.py",)),
    Mutant("bucket width: check dropped", CONSTRUCT,
           '_require("count", {"bucket_width": width})', "pass", RULES),
    # the seed domain and the bulk decoder of seeding.py
    Mutant("stream: seed check dropped", SEEDING,
           '_require("non-negative", {"seed": seed})\n    return random.Random(seed)',
           "return random.Random(seed)", RULES),
    Mutant("np_stream: seed check dropped", SEEDING,
           '_require("non-negative", {"seed": seed})\n    rng = np.random.default_rng(',
           "rng = np.random.default_rng(", RULES),
    Mutant("np_stream: skip ignored", SEEDING,
           "rng.bit_generator.advance(skip)", "pass", SPLIT),
    Mutant("bernoulli: the two 32-bit words swapped", SEEDING,
           "high = words[0::2] >> 5\n", "high = words[1::2] >> 5\n", ("test_graph_core.py",)),
    Mutant("bernoulli: a tie read as below the bound", SEEDING,
           "words[1::2][tied] >> 6 < low", "words[1::2][tied] >> 6 <= low",
           ("test_graph_core.py::test_gnp_threshold_is_exact_at_a_bulk_draw",)),
    # the one reader of the Mersenne-Twister words and its randrange decoder
    Mutant("mt_pieces: the state position off by one", SEEDING,
           '"pos": internal[-1]}}', '"pos": internal[-1] - 1}}', ("test_graph_core.py",)),
    Mutant("mt_pieces: the state not written back", SEEDING,
           'rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss))', "pass",
           ("test_graph_core.py",)),
    Mutant("mt_pieces: the state written back after the first count only", SEEDING,
           "            if not left:\n", "            if left == total - counts[0]:\n",
           ("test_graph_core.py::test_bernoulli_blocks_match_consecutive_loops",)),
    Mutant("mt_pieces: the last partial piece of a count dropped", SEEDING,
           "for at in range(0, count, step):", "for at in range(0, count - count % step, step):",
           ("test_graph_core.py",)),
    Mutant("mt_pieces: each pair of words swapped on the bulk path", SEEDING,
           "            left -= len(piece)\n",
           "            piece[:len(piece) & ~1] = piece[:len(piece) & ~1].reshape(-1, 2)[:, ::-1]"
           ".ravel()\n            left -= len(piece)\n",
           ("test_graph_core.py",)),
    Mutant("randbelow: the rejection kept at r == n", SEEDING,
           "[r[r < n] for r in tops]", "[r[r <= n] for r in tops]", PAIRS),
    Mutant("randbelow: a piece's shift dropped", SEEDING,
           "copy=False) >> shift for piece", "copy=False) for piece",
           ("test_graph_core.py::test_randbelow_keeps_the_getrandbits_draws_below_n",)),
    Mutant("sampled pairs: the odd carry dropped", CONSTRUCT,
           "carry = vals[end:]", "carry = vals[:0]", PAIRS),
    Mutant("AuditParams: seed check dropped", "src/ramspect/structure_audit.py",
           '_require("non-negative", vars(self), "seed")', "pass", RULES),
    # the window and audit rules given one home each
    Mutant("verifier: S max read one unit short", CONSTRUCT,
           "gap = min(dt) - max(ds)", "gap = min(dt) - max(ds[:-1])",
           ("test_ramsey_construct.py",)),
    Mutant("verifier: S max read from T", CONSTRUCT,
           "gap = min(dt) - max(ds)", "gap = min(dt) - max(dt)",
           ("test_ramsey_construct.py",)),
    Mutant("verifier: X rows not cut to U0", CONSTRUCT,
           "rows = [(s & u0, d & u0) for", "rows = [(s, d) for",
           ("test_ramsey_construct.py",)),
    Mutant("m window: floor for the low end", CONSTRUCT,
           "max(1, math.ceil(c * n * n))", "max(1, math.floor(c * n * n))",
           ("test_ramsey_construct.py",)),
    Mutant("bad sides: sparse side misses one vertex of W", "src/ramspect/structure_audit.py",
           "k = popcount(rows & pack_rows([wmask], n))",
           "k = popcount(rows & pack_rows([wmask & (wmask - 1)], n))",
           ("test_structure_audit.py",)),
    Mutant("bad sides: the sides overlap", "src/ramspect/structure_audit.py",
           "dense = ~sparse & (", "dense = (", ("test_structure_audit.py",)),
    Mutant("bad sides: ties go to the dense side", "src/ramspect/structure_audit.py",
           "sparse = k < thr\n", "sparse = (k < thr) & (wsize - k - bit_matrix([wmask], n)[0]"
           " >= thr)\n", ("test_structure_audit.py",)),
    Mutant("prefix_words: a threshold below 0 read as it is", GRAPH,
           "math.ceil(2 * max(thr, 0) / 64) + 1", "math.ceil(2 * thr / 64) + 1",
           ("test_graph_core.py",)),
    # graph_core's three readers and writers of the packed-word layout
    Mutant("bits_at: the bit index mask & 63 read as & 31", GRAPH,
           "(v & 63).astype(np.uint64)", "(v & 31).astype(np.uint64)", LAYOUT),
    Mutant("pack_bools: the byte count off by one", GRAPH,
           "out.view(np.uint8)[..., :-(-n // 8)]", "out.view(np.uint8)[..., :-(-n // 8) + 1]",
           LAYOUT),
    Mutant("gathered_popcount: the op ignored", GRAPH,
           "op(rows, np.take(y, b, axis=0), out=rows)",
           "np.bitwise_xor(rows, np.take(y, b, axis=0), out=rows)", LAYOUT),
    Mutant("theorem keep: >= for >", "src/ramspect/double_exposure.py",
           "min(out.distinct_sizes) > last_max", "min(out.distinct_sizes) >= last_max",
           ("test_double_exposure.py",)),
    # the theorem golden file's footer prints the step, 2253 at n = 256
    Mutant("theorem: the stride factor 2.2 read as 2.0", EXPOSE,
           "stride = 2.2 * eparams.kappa_window", "stride = 2.0 * eparams.kappa_window",
           ("test_golden.py::test_artifact_digest_is_pinned[theorem]",)),
    Mutant("theorem keep: emptiness test dropped", "src/ramspect/double_exposure.py",
           "keep = out is not None and bool(out.distinct_sizes) \\",
           "keep = out is not None \\", ("test_double_exposure.py",)),
    # the step table and lazy catch-up of the Phi/Psi block walk
    Mutant("walk: range end one short", ORACLE,
           "+ (int(acc[-1]) + 1)", "+ int(acc[-1])", WALK),
    Mutant("walk: no catch-up, only the step's own flip", ORACLE,
           "< 0:\n            continue", "< 0:\n            held = t\n            continue",
           WALK),
    Mutant("walk: top moved with the wrong sign", ORACLE,
           "(stride + counts[:, -1])", "(stride - counts[:, -1])", WALK),
    Mutant("walk: top never moved", ORACLE,
           "(stride + counts[:, -1])", "(stride + counts[:, 0])", WALK),
    Mutant("walk: catch-up signs swapped", ORACLE,
           "if t >> j & 1:", "if not t >> j & 1:", WALK),
    Mutant("walk: range starts at base + 1", ORACLE,
           "marks.find(0, base, end)", "marks.find(0, base + 1, end)", WALK),
    # phi/psi's one ceiling, the oracle cap
    Mutant("cli: phi/psi take the vertex cap", CLI,
           "_build_graph(ns, so.PHI_EXACT_CAP)", "_build_graph(ns, VERTEX_CAP)",
           ("test_cli.py",)),
    # the gnp rows: each block's byte columns, eight rows to a byte
    Mutant("gnp: the column bytes' bit order reversed", GRAPH,
           '"j,ijk->ki", _BIT_WEIGHTS,', '"j,ijk->ki", _BIT_WEIGHTS[::-1],',
           ("test_graph_core.py::test_gnp_row_blocks_match_the_loop",)),
    # the Paley rows by rotation, and check (4) of per_k_checks
    Mutant("paley: rows rotated by u + 1", GRAPH,
           "(residues << u) | (residues >> (n - u))",
           "(residues << u + 1) | (residues >> (n - u - 1))", ("test_graph_core.py",)),
    Mutant("check4: a step of exactly M*rt not counted", "src/ramspect/double_exposure.py",
           "if dl >= big)", "if dl > big)", ("test_double_exposure.py",)),
    Mutant("check4: a falling step counted as negative", "src/ramspect/double_exposure.py",
           "(abs(b - a) for a, b in", "((b - a) for a, b in", ("test_double_exposure.py",)),
    # the pair stages of construct: the degree-sum bucket, the close-complement
    # screen, the star and the bucket counts
    Mutant("pigeonhole: ties go to the highest bucket", CONSTRUCT,
           "j = int(np.argmax(sizes))", "j = len(sizes) - 1 - int(np.argmax(sizes[::-1]))",
           PAIRS),
    Mutant("bucket sizes: the a = b correction skipped", CONSTRUCT,
           "    by_sum[::2] -= hist\n", "", PAIRS),
    Mutant("bucket mask: >= for >", CONSTRUCT,
           "hit &= cols[c:] > cols[s:e, None]", "hit &= cols[c:] >= cols[s:e, None]", PAIRS),
    Mutant("bucket: second vertices gathered one column late", CONSTRUCT,
           "starts = np.arange(e - s) * (n - c) - c",
           "starts = np.arange(e - s) * (n - c) - c - 1", PAIRS),
    Mutant("gap screen: prefix bound loses min(., n)", GRAPH,
           "seen = min(64 * head, n)", "seen = 64 * head", ("test_graph_core.py",)),
    Mutant("gap screen: +2 in the prefix bound", GRAPH,
           "part = seen - 1 - pc >= thr", "part = seen + 1 - pc >= thr",
           ("test_graph_core.py",)),
    Mutant("star: neighbours taken from the filtered bucket", CONSTRUCT,
           "first, second = h\n", "first, second = h_filtered\n", PAIRS),
    Mutant("diagnostics: bucket counts read with len", CONSTRUCT,
           '"h_size": h.shape[1], "h_filtered_size": h_filt.shape[1]',
           '"h_size": len(h), "h_filtered_size": len(h_filt)', PAIRS),
    # the audit's prefix screen and its two ways of finishing open entries
    Mutant("screen: >= read as >", AUDIT, "open_ = k < t32\n", "open_ = k <= t32\n", SCREEN),
    Mutant("screen: the self bit left out of the prefix", AUDIT,
           "open_[:c] |= k[:c] + member.T > over", "open_[:c] |= k[:c] > over", SCREEN),
    Mutant("screen: the open-entry recount skipped", AUDIT,
           "got = gathered_popcount(np.bitwise_and, rest, v, wrest, i)",
           "got = np.zeros(len(at), dtype=np.int64)", OPEN_RECOUNT),
    Mutant("screen: an open vertex's own bit of W not read", AUDIT,
           "(wsize[i] - got - inw < t)", "(wsize[i] - got < t)", SCREEN),
    Mutant("screen: the second product forgets membership past the prefix", AUDIT,
           "    k[c:] += rest.T  # now", "    # now", SECOND_PRODUCT),
    # the sorted-bucket star count and the packed X-pair verifier
    Mutant("star: searchsorted(side=right)", CONSTRUCT,
           "np.arange(g.n + 1, dtype=first.dtype))",
           "np.arange(g.n + 1, dtype=first.dtype), side=\"right\")", PAIRS),
    Mutant("star: the partner slice one short", CONSTRUCT,
           "second[lo:hi]", "second[lo:hi - 1]", PAIRS),
    Mutant("star: the bucket order left unchecked", CONSTRUCT,
           "if np.any(bucket[0, 1:] < bucket[0, :-1]):", "if False:", PAIRS),
    Mutant("verifier: triangle offset 1 read as 0", CONSTRUCT,
           "np.triu_indices(len(xs), 1)", "np.triu_indices(len(xs), 0)", PAIRS),
    Mutant("verifier: the doubled multiplicity term dropped", CONSTRUCT,
           " + popcount(pd[:, None] ^ pd)", "", PAIRS),
    # the one multiset-gap encoding: a unit's support and double masks
    Mutant("unit_rows: support read as ra ^ rb", GRAPH,
           "return ra | rb, ra & rb", "return ra ^ rb, ra & rb",
           ("test_graph_core.py::test_symdiff_size_matches_brute_force",)),
    # the exposure table from the degree split
    Mutant("table: the vertices of U kept in Z'", EXPOSE,
           "z = zm & ~u_mask", "z = zm", TABLE),
    Mutant("table: the e(Z') term dropped", EXPOSE,
           "return count_edges(g, z) + sum(", "return 0 + sum(", TABLE),
    Mutant("table: degrees counted into U0, not U", EXPOSE,
           "records = family_table(g, u, ", "records = family_table(g, res.u0_mask, ", TABLE),
    # induced_subgraph a chunk of rows at a time, and the one bytes-to-rows
    # conversion; induced_subgraph packs its kept columns with pack_bools
    Mutant("induced: the kept-column take dropped", GRAPH,
           "g.n)[:, cols]", "g.n)", ("test_graph_core.py",)),
    Mutant("induced: kept columns packed big-endian", GRAPH,
           'np.packbits(bits, axis=-1, bitorder="little")',
           'np.packbits(bits, axis=-1, bitorder="big")', ("test_graph_core.py",)),
    Mutant("induced: the chunk loop stops one chunk early", GRAPH,
           "range(0, len(vmap), ROW_CHUNK)", "range(0, len(vmap) - ROW_CHUNK, ROW_CHUNK)",
           ("test_graph_core.py",)),
    Mutant("int rows: bytes read big-endian", GRAPH,
           'rows.ravel().tolist(), repeat("little")', 'rows.ravel().tolist(), repeat("big")',
           ("test_graph_core.py",)),
    Mutant("int rows: rows of no bytes dropped", GRAPH,
           "        return [0] * len(packed)\n", "        return []\n",
           ("test_graph_core.py::test_rows_of_no_bytes_read_as_zero_rows",)),
    # the Monte-Carlo trials split into runs on one jumped-ahead stream, and
    # the int64 bound of the sampled sums
    Mutant("split: a run skips first outputs, not first * len(a)", AC,
           "np_stream(seed, 0, first * n)", "np_stream(seed, 0, first)", SPLIT),
    Mutant("split: the last run dropped", AC,
           "    return results\n", "    return results[:-1]\n", SPLIT),
    Mutant("split: run 0 given run 1's count", AC,
           "results[0] = job(0, cuts[1])", "results[0] = job(0, cuts[2] - cuts[1])", SPLIT),
    Mutant("split: a run's exception dropped", AC,
           "            raise exc\n", "            pass\n", SPLIT),
    Mutant("split: threads left unjoined", AC,
           "            t.join()\n", "            pass\n", SPLIT),
    Mutant("int64 sums: the cap doubled", AC,
           "inst.weight, INT64_MAX,", "inst.weight, 2 * INT64_MAX,", SPLIT),
    # the bit planes whose popcounts make the sampled sums
    Mutant("planes: the sign of the negative planes dropped", AC,
           "planes.append((sign << b,", "planes.append((1 << b,", PLANES),
    Mutant("planes: a plane weighted 2**(b + 1)", AC,
           "planes.append((sign << b,", "planes.append((sign << b + 1,", PLANES),
    # the sampler's draws go through pack_bools, into its one zeroed block
    Mutant("planes: the last partial byte of the draws left unwritten", GRAPH,
           'out.view(np.uint8)[..., :-(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")',
           'out.view(np.uint8)[..., :n // 8] = np.packbits(bits, axis=-1, bitorder="little")'
           "[..., :n // 8]", PLANES),
    # nothing a command accepts goes unread: construct's one override group,
    # the out-of-memory exit, the swap family's running ORs and the rule
    # that every public name has a user outside the tests
    Mutant("cli: construct reads the exposure group again", CLI,
           '_split_overrides(ns.set, {"construct": _CP_FIELDS})',
           "_split_overrides(ns.set, _PIPELINE_FIELDS)", ("test_cli.py",)),
    Mutant("cli: the MemoryError handler dropped", CLI,
           "    except MemoryError:\n        pass", "", ("test_cli.py",)),
    # every graph-source flag a command takes is one its source reads, and
    # the values a left-out --p or --graph-seed resolves to
    Mutant("cli: the --graph refusal dropped", CLI,
           '_refuse(ns, "--graph", ("n", "p", "graph_seed"))',
           '_refuse(ns, "--graph", ())', UNREAD),
    Mutant("cli: the non-gnp --p refusal dropped", CLI,
           'f"--gen {ns.gen}", ("p", "graph_seed")', 'f"--gen {ns.gen}", ("graph_seed",)',
           UNREAD),
    Mutant("cli: generate's non-gnp --graph-seed refusal dropped", CLI,
           'f"--gen {ns.gen}", ("p", "graph_seed")',
           'f"--gen {ns.gen}", ("p", "graph_seed") if ns.cmd != "generate" else ("p",)',
           UNREAD),
    Mutant("cli: a left-out --graph-seed resolved to 1", CLI,
           "seed = 0 if ns.graph_seed is None else ns.graph_seed",
           "seed = 1 if ns.graph_seed is None else ns.graph_seed", DEFAULTS),
    Mutant("cli: lo resolves a left-out --p to 0.4", CLI,
           "p = 0.5 if ns.p is None else ns.p\n    trials = ",
           "p = 0.4 if ns.p is None else ns.p\n    trials = ", DEFAULTS),
    Mutant("cli: lo's ones model reads --trials", CLI,
           '"--model ones", ("seed", "trials")', '"--model ones", ("seed",)',
           ("test_cli.py::test_lo_ones_refuses_the_flags_it_does_not_read",)),
    Mutant("cli: lo's ones model refuses after the seed resolves", CLI,
           '            if getattr(ns, "model", None) == "ones":  # exact: it draws nothing\n'
           '                _refuse(ns, "--model ones", ("seed", "trials"))\n'
           '            if getattr(ns, "seed", 0) is None:  # left out, --seed reads 0\n'
           '                ns.seed = 0\n',
           '            if getattr(ns, "seed", 0) is None:  # left out, --seed reads 0\n'
           '                ns.seed = 0\n'
           '            if getattr(ns, "model", None) == "ones":  # exact: it draws nothing\n'
           '                _refuse(ns, "--model ones", ("seed", "trials"))\n',
           ("test_cli.py::test_lo_csv_columns",)),
    Mutant("cli: a left-out --seed resolved to 1", CLI,
           "ns.seed = 0", "ns.seed = 1", DEFAULTS),
    Mutant("cli: lo resolves a left-out --trials to 1000", CLI,
           "trials = 200_000 if ns.trials is None", "trials = 1000 if ns.trials is None",
           DEFAULTS),
    Mutant("table: T's running OR read one unit short", EXPOSE,
           "s_pre[k - i] | t_pre[i]", "s_pre[k - i] | t_pre[max(i - 1, 0)]", TABLE),
    Mutant("public names: an unused constant in graph_core", GRAPH,
           'GRAPH_MODELS = ("gnp", "paley", "complete", "empty")\n',
           'GRAPH_MODELS = ("gnp", "paley", "complete", "empty")\nSPARE_CAP = 1 << 10\n',
           ("test_source.py",)),
    # the refusals, exits and harvest intervals that only the line map's
    # tests reach (tests/coverage_map.py), one mutant a branch family
    Mutant("graph: the asymmetry check dropped", GRAPH,
           "if not (adj[u] >> v) & 1:", "if False:",
           ("test_graph_core.py::test_graph_refuses_rows_that_are_no_simple_graph",)),
    Mutant("count_edges: masks that meet let through", GRAPH,
           "if amask & bmask:", "if False:",
           ("test_graph_core.py::test_count_edges_across_refuses_masks_that_meet",)),
    Mutant("gnp: a p outside [0, 1] let through", GRAPH,
           "if not 0.0 <= p <= 1.0:", "if False:",
           ("test_graph_core.py::test_generate_refuses_a_negative_n_and_a_gnp_p_out_of_range",)),
    Mutant("paley: the n % 4 test dropped", GRAPH,
           "if n % 4 != 1 or not _is_prime(n):", "if not _is_prime(n):",
           ("test_graph_core.py::test_generate_paley_rejects_bad_modulus",)),
    Mutant("paley: 1 read as a prime", GRAPH,
           "return q > 1 and all(", "return all(",
           ("test_graph_core.py::test_generate_paley_rejects_bad_modulus",)),
    # load_graph's checks, the only ones a file's edges pass
    Mutant("load_graph: mirror bit dropped", GRAPH,
           "        rows[v] |= 1 << u\n", "",
           ("test_graph_core.py::test_dump_load_roundtrip",)),
    Mutant("load_graph: self-loop check dropped", GRAPH,
           'if u == v:\n            raise GraphParseError', 'if False:\n            raise GraphParseError',
           ("test_graph_core.py::test_load_graph_names_the_first_bad_line",)),
    Mutant("load_graph: range check dropped", GRAPH,
           "if not (0 <= u < n and 0 <= v < n):", "if False:",
           ("test_graph_core.py::test_load_graph_names_the_first_bad_line",)),
    Mutant("load_graph: a negative count let through", GRAPH,
           '            if n < 0:\n                raise GraphParseError(f"line {lineno}: negative',
           '            if False:\n                raise GraphParseError(f"line {lineno}: negative',
           ("test_graph_core.py::test_load_graph_rejects_malformed",)),
    Mutant("cli: diagnostics beside --out lose the .diag.json suffix", CLI,
           'return ns.out + ".diag.json"', 'return ns.out + ".diag"',
           ("test_cli.py::test_diagnostics_go_beside_out_or_into_the_working_directory",)),
    Mutant("cli: no command exits 0", CLI,
           "        parser.print_usage(sys.stderr)\n        return 1",
           "        parser.print_usage(sys.stderr)\n        return 0",
           ("test_cli.py::test_no_command_prints_the_usage_and_exits_one",)),
    Mutant("cli: an OSError left to a traceback", CLI,
           "except OSError as exc:", "except NotImplementedError as exc:",
           ("test_cli.py::test_an_out_file_in_a_missing_directory_is_an_io_error",)),
    Mutant("cli: python -m drops main's exit code", CLI,
           "    sys.exit(main())", "    main()",
           ("test_cli.py::test_the_module_runs_as_a_command",)),
    Mutant("gamma: the (0, 1) check dropped", EXPOSE,
           "if not 0 < self.gamma < 1:", "if False:",
           ("test_double_exposure.py::test_exposure_params_reject_a_gamma_outside_zero_one",)),
    Mutant("resolve: Q below 3*beta let through", EXPOSE,
           "if q_const < 3 * beta:", "if False:",
           ("test_double_exposure.py::test_resolve_refuses_constants_the_scaffold_cannot_hold",)),
    Mutant("resolve: a column range beyond |T| let through", EXPOSE,
           "if i_hi > len(res.t_units):", "if False:",
           ("test_double_exposure.py::test_resolve_refuses_constants_the_scaffold_cannot_hold",)),
    Mutant("expose: an empty U0 let through", EXPOSE,
           "if u0_mask == 0:", "if False:",
           ("test_double_exposure.py::test_expose_refuses_an_empty_u0",)),
    Mutant("selection: an empty selection accepted", EXPOSE,
           '{"attempt": t, "stage": "selection"})\n            continue\n',
           '{"attempt": t, "stage": "selection"})\n',
           ("test_double_exposure.py::"
            "test_an_attempt_whose_passing_cells_miss_every_interval_is_retried",)),
    Mutant("harvest: the first interval only", EXPOSE,
           "for j in range(n_int):", "for j in range(1):",
           ("test_double_exposure.py::test_the_harvest_takes_a_cell_from_its_second_interval",)),
    Mutant("star_or_matching: the empty-bucket check dropped", CONSTRUCT,
           "if h_filtered.shape[1] == 0:", "if False:",
           ("test_ramsey_construct.py::"
            "test_a_filter_that_keeps_no_pair_fails_at_star_or_matching",)),
    Mutant("independent_units: an empty unit list let through", CONSTRUCT,
           "if not units:", "if False:",
           ("test_ramsey_construct.py::test_independent_units_refuses_an_empty_unit_list",)),
    Mutant("sample_U0: a p above 1 let through", CONSTRUCT,
           "if not 0.0 < p <= 1.0:", "if not 0.0 < p:",
           ("test_ramsey_construct.py::test_sample_u0_refuses_inputs_it_cannot_sample",)),
    # the capacity rule of errors._require_cap
    Mutant("cap: > flipped to >=", ERRORS, "if value > cap:", "if value >= cap:", RULES),
    Mutant("cap: check dropped", ERRORS, "if value > cap:", "if False:", RULES),
)


def copy_checkout(work: Path) -> dict:
    """Copy src/, tests/, bench/ and pyproject.toml into work, caches left
    out, and return the environment whose PYTHONPATH is the copy's src/
    and tests/."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for sub in ("src", "tests", "bench"):
        shutil.copytree(ROOT / sub, work / sub, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", work)
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(work / "src"), str(work / "tests"))))


def _pytest(work: Path, env: dict, tests) -> int | None:
    """pytest's exit status on the given test files in work, None on a timeout."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(f"tests/{t}" for t in tests)]
    try:
        return subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def run(mutant: Mutant | None, tests) -> str:
    """killed, survived, timeout or error for one mutant (None: no edit)."""
    with tempfile.TemporaryDirectory(prefix="ramspect-mutant-") as tmp:
        work = Path(tmp)
        env = copy_checkout(work)
        if mutant is not None:
            target = work / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return "error: old text does not occur exactly once"
            target.write_text(text.replace(mutant.old, mutant.new))
        code = _pytest(work, env, tests)
    # pytest exits 1 when a test fails and 2 when one cannot be collected
    outcomes = {None: "timeout", 0: "survived", 1: "killed", 2: "killed"}
    return outcomes.get(code, f"error: exit {code}")


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    start = time.monotonic()
    files = sorted({t for m in chosen for t in m.tests})
    if run(None, files) != "survived":
        print(f"the unmutated tests fail: {' '.join(files)}", file=sys.stderr)
        return 2
    outcomes = []
    for m in chosen:
        t0 = time.monotonic()
        outcome = run(m, m.tests)
        outcomes.append(outcome)
        print(f"{outcome:9s} {time.monotonic() - t0:6.1f}s  {m.name}", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(chosen)} killed in {time.monotonic() - start:.0f}s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
