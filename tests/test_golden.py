"""Golden outputs of the search: the exit code and the sha256 of the
``--json`` stdout and of the stderr of fixed ``taut`` and ``consequence``
command lines.

The lines are the benchmark's rungs with their symbols unrenamed, each in
the class it runs in, and one ``--jobs 2`` line per template.  Their text is
copied here, so that a change to the benchmark does not move these pins.  A
change that is meant to alter what a search prints (a reduction of the
space, say) updates the digests here, and says why.
"""

import hashlib

import pytest

from supkit.cli import run

GUARD = "exists x. exists y. exists z. (~(x = y) /\\ ~(y = z) /\\ ~(x = z))"

R_PAIR = "(forall v. R(v,c1) sup R(c1,v)) -> exists v. (R(v,v) sup R(c1,c1))"
S1_R = "forall v. (R(v,c1) /\\ R(c1,v) -> R(v,c1) sup R(c1,v))"
S2_PQ = "forall v. (P(v) sup Q(v) -> P(v) \\/ Q(v))"
S3_PQ = "forall v. (P(v) sup Q(v) -> Q(v) sup P(v))"
S4_PQ = "(P(c1) sup Q(c1)) sup P(c2) -> P(c1) sup (Q(c1) sup P(c2))"
S5_PQ = "forall v. (P(v) /\\ ~Q(v) -> ((P(v) sup Q(v)) <-> (~P(v) sup ~Q(v))))"
S5_R = ("forall v. (R(v,c1) /\\ ~R(c1,v) -> "
        "((R(v,c1) sup R(c1,v)) <-> (~R(v,c1) sup ~R(c1,v))))")
DN_PQ = "forall v. ((~~P(v) sup Q(v)) <-> (P(v) sup Q(v)))"
DN_R = "forall v. ((~~R(v,c1) sup R(c1,v)) <-> (R(v,c1) sup R(c1,v)))"
CHAIN = "((((p0 sup p1) sup p2) sup p3) sup p4) -> p0 sup (p1 sup (p2 sup (p3 sup p4)))"

EMPTY = hashlib.sha256(b"").hexdigest()

# (name, premises, conclusion, class, jobs, exit code, sha256 of stdout, of stderr)
GOLDEN = [
    ("r-pair-all", (), R_PAIR, "all", 1, 0,
     "b1cec5ad0c3f4bf15bf815e70fad4fc92bf855e50ff4e3f25e76b40619bffc15", EMPTY),
    ("r-pair-asso", (), R_PAIR, "asso", 1, 0,
     "f5352c87e2316daf76403de1e03d9b975c63aa6382335d055bf6a1def7e7238a", EMPTY),
    ("s1-r-all", (), S1_R, "all", 1, 0,
     "ca756ff617b8079eebd55d52cb7c529bc00cc893875536e2b159c4f4fd1d20e9", EMPTY),
    ("s2-pq-all", (), S2_PQ, "all", 1, 0,
     "7396f774ca623e4896074f1b36b0e36ea5ffdb8102a422cb6970bd0b4c897bdf", EMPTY),
    ("s3-pq-all", (), S3_PQ, "all", 1, 0,
     "7396f774ca623e4896074f1b36b0e36ea5ffdb8102a422cb6970bd0b4c897bdf", EMPTY),
    ("s4-pq-asso", (), S4_PQ, "asso", 1, 0,
     "bb61c930bf9a5d5fa924782f95823af2a0e7999f7bc9e1adde524a264ac7582c", EMPTY),
    ("chain-asso", (), CHAIN, "asso", 1, 0,
     "1118c87e821933dd952bf3d8fa0ca4e1ec5ab95cee2ba0872d63abaa5861f2e8", EMPTY),
    ("s4-pq-all-guarded", (GUARD,), S4_PQ, "all", 1, 1,
     "bf9c325e112f2c4366c6d2a38e11b358a50dfb6d3994f40e77f65b63eb496cf4", EMPTY),
    ("s4-pq-regstar", (), S4_PQ, "regstar", 1, 0,
     "adceadb4336977a62c426230f89d1dbd04bfa1e2445b0090e01b0767c04a4993", EMPTY),
    ("s4-pq-dec", (), S4_PQ, "dec", 1, 0,
     "3b379bcf4eb0319b994f32d2e7d36905213ffc8515c9cf5940941c98bdb601f5", EMPTY),
    ("s5-pq-dec", (), S5_PQ, "dec", 1, 0,
     "1fac24cb98d7f8f266e06a8a94338336c568ced32cb9829c490f217c29f7647a", EMPTY),
    ("dn-pq-reg", (), DN_PQ, "reg", 1, 0,
     "87fd2ea118ca7dcc6e5d379fcb01ff9b4b71643ac7e0d030d33cf2448397f12c", EMPTY),
    ("dn-pq-dec", (), DN_PQ, "dec", 1, 0,
     "1fac24cb98d7f8f266e06a8a94338336c568ced32cb9829c490f217c29f7647a", EMPTY),
    ("chain-regstar", (), CHAIN, "regstar", 1, 0,
     "051f48c8251fde1bfc4dab976a0d810dac7bfce3c19ecd6d4a6b948a7a6cd670", EMPTY),
    ("chain-dec", (), CHAIN, "dec", 1, 0,
     "9cd90b8c69da8b48ca66df81891ef6e3dbfc822d5711fb07d971b67cba8a238f", EMPTY),
    ("s4-pq-reg-guarded", (GUARD,), S4_PQ, "reg", 1, 1,
     "6d61eed217338893c57c8726315aada5723cc8fe350c023f28d458fea6a56913", EMPTY),
    ("s5-r-regstar-guarded", (GUARD,), S5_R, "regstar", 1, 1,
     "47367aa27ccdc7c6f8070fe122812651b32d9cc3e6b1897e141a606f56c3f9a5", EMPTY),
    ("dn-r-all-guarded", (GUARD,), DN_R, "all", 1, 1,
     "46f41c60c39530aaea5ac997af6babcddfdea2482f8abaa06f947825b8196fb5", EMPTY),
    ("r-pair-all-jobs-2", (), R_PAIR, "all", 2, 0,
     "b1cec5ad0c3f4bf15bf815e70fad4fc92bf855e50ff4e3f25e76b40619bffc15", EMPTY),
    ("s1-r-all-jobs-2", (), S1_R, "all", 2, 0,
     "ca756ff617b8079eebd55d52cb7c529bc00cc893875536e2b159c4f4fd1d20e9", EMPTY),
    ("s2-pq-all-jobs-2", (), S2_PQ, "all", 2, 0,
     "7396f774ca623e4896074f1b36b0e36ea5ffdb8102a422cb6970bd0b4c897bdf", EMPTY),
    ("s3-pq-all-jobs-2", (), S3_PQ, "all", 2, 0,
     "7396f774ca623e4896074f1b36b0e36ea5ffdb8102a422cb6970bd0b4c897bdf", EMPTY),
    ("s4-pq-asso-jobs-2", (), S4_PQ, "asso", 2, 0,
     "bb61c930bf9a5d5fa924782f95823af2a0e7999f7bc9e1adde524a264ac7582c", EMPTY),
    ("chain-asso-jobs-2", (), CHAIN, "asso", 2, 0,
     "1118c87e821933dd952bf3d8fa0ca4e1ec5ab95cee2ba0872d63abaa5861f2e8", EMPTY),
    ("s5-pq-dec-jobs-2", (), S5_PQ, "dec", 2, 0,
     "1fac24cb98d7f8f266e06a8a94338336c568ced32cb9829c490f217c29f7647a", EMPTY),
    ("dn-pq-reg-jobs-2", (), DN_PQ, "reg", 2, 0,
     "87fd2ea118ca7dcc6e5d379fcb01ff9b4b71643ac7e0d030d33cf2448397f12c", EMPTY),
    ("s5-r-regstar-guarded-jobs-2", (GUARD,), S5_R, "regstar", 2, 1,
     "47367aa27ccdc7c6f8070fe122812651b32d9cc3e6b1897e141a606f56c3f9a5", EMPTY),
    ("dn-r-all-guarded-jobs-2", (GUARD,), DN_R, "all", 2, 1,
     "46f41c60c39530aaea5ac997af6babcddfdea2482f8abaa06f947825b8196fb5", EMPTY),

]

# DN_R in dec at other oracle bounds: (name, oracle bound, exit code, sha256
# of stdout, of stderr); the instances' parameters widen the oracle
ORACLE_BOUNDS = [
    ("dn-r-dec-oracle-1", 1, 1,
     "c15c5b99e881843267dde70c4c047ddec04ec128faf666efadfef8dcf863f85d", EMPTY),
    ("dn-r-dec-oracle-2", 2, 0,
     "c29f35f20c800fce61f7c56fc50d47fe486c7142288fa84ea8588f732ba77e7d", EMPTY),
    ("dn-r-dec-oracle-4", 4, 0,
     "a9553c219901acad299ac3973a173d4d6478c4f22599f6644ac0d468f6838e8a", EMPTY),
]


def argv_of(premises, conclusion, table_class, jobs, oracle_bound=3):
    if premises:
        argv = ["consequence", "--premises", ";".join(premises), "--conclusion", conclusion]
    else:
        argv = ["taut", "--formula", conclusion]
    argv += ["--class", table_class, "--max-domain", "3", "--oracle-bound", str(oracle_bound),
             "--json"]
    return argv + (["--jobs", str(jobs)] if jobs > 1 else [])


def outcome(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest()


@pytest.mark.parametrize("premises, conclusion, table_class, jobs, code, out, err",
                         [pytest.param(*line[1:], id=line[0]) for line in GOLDEN])
def test_a_search_prints_its_golden_output(capsys, premises, conclusion, table_class, jobs,
                                           code, out, err):
    assert outcome(capsys, argv_of(premises, conclusion, table_class, jobs)) == (code, out, err)


@pytest.mark.parametrize("oracle_bound, code, out, err",
                         [pytest.param(*line[1:], id=line[0]) for line in ORACLE_BOUNDS])
def test_an_oracle_bound_prints_its_golden_output(capsys, oracle_bound, code, out, err):
    argv = argv_of((), DN_R, "dec", 1, oracle_bound)
    assert outcome(capsys, argv) == (code, out, err)
