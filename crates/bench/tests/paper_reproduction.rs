//! The paper's worked examples, counted: each test runs `exp_paper <id>`
//! (one process per example; see `strata_bench::paper`), compares every
//! column but `ms` with the table committed here, so a count that moves
//! shows as a line diff, and asserts the paper's claim on the rows.

use std::process::Command;

use strata_bench::paper::Row;

/// Runs example `id` and checks its counts against `expected`.
fn table(id: &str, expected: &str) -> Vec<Row> {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_paper")).arg(id).output().expect("exp_paper");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exp_paper {id} failed:\n{stdout}{stderr}");
    let rows: Vec<Row> = (stdout.lines().skip(2).take_while(|l| !l.is_empty()))
        .map(|l| Row::parse(l).unwrap_or_else(|| panic!("not a row: {l}")))
        .collect();
    let got: Vec<String> = rows.iter().map(Row::counts).collect();
    let want: Vec<&str> = expected.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    let diff: String = (0..got.len().max(want.len()))
        .map(|i| (want.get(i).copied().unwrap_or(""), got.get(i).map_or("", String::as_str)))
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("- {w}\n+ {g}\n"))
        .collect();
    assert!(diff.is_empty(), "{id}: counts moved\n{diff}\nwhole table:\n{}", got.join("\n"));
    rows
}

fn row<'a>(rows: &'a [Row], strategy: &str, step: &str) -> &'a Row {
    let found = rows.iter().find(|r| r.strategy == strategy && r.step == step);
    found.unwrap_or_else(|| panic!("no row {strategy} / {step}"))
}

const E1: &str = r"
    recompute                  INSERT(accepted(5))          16        1         0        1          0  -rejected(5) +accepted(5)
    static                     INSERT(accepted(5))          16        5         4        1         96  -rejected(5) +accepted(5)
    dynamic-single             INSERT(accepted(5))          16        5         4        8       3872  -rejected(5) +accepted(5)
    dynamic-multi              INSERT(accepted(5))          16        5         4        8       3232  -rejected(5) +accepted(5)
    cascade                    INSERT(accepted(5))          16        5         4        0       1888  -rejected(5) +accepted(5)
    fact-level                 INSERT(accepted(5))          16        1         0        4       1040  -rejected(5) +accepted(5)
    recompute                  DELETE(accepted(1))          16        1         0        1          0  -accepted(1) +rejected(1)
    static                     DELETE(accepted(1))          16        3         2        1         96  -accepted(1) +rejected(1)
    dynamic-single             DELETE(accepted(1))          16        1         0       12       3872  -accepted(1) +rejected(1)
    dynamic-multi              DELETE(accepted(1))          16        1         0       12       4064  -accepted(1) +rejected(1)
    cascade                    DELETE(accepted(1))          16        1         0        2       1936  -accepted(1) +rejected(1)
    fact-level                 DELETE(accepted(1))          16        1         0       12       1392  -accepted(1) +rejected(1)
    recompute                  INSERT(late rule)             8        0         0        2          0
    recompute                  DELETE(rejected rule)         8        3         0        1          0  -rejected(2) -rejected(3) -rejected(4) +late(2) +late(3) +late(4)
    static                     INSERT(late rule)             8        0         0        1        128
    static                     DELETE(rejected rule)         8        3         0        1        128  -rejected(2) -rejected(3) -rejected(4) +late(2) +late(3) +late(4)
    dynamic-single             INSERT(late rule)             8        0         0        0       1936
    dynamic-single             DELETE(rejected rule)         8        3         0        6       1936  -rejected(2) -rejected(3) -rejected(4) +late(2) +late(3) +late(4)
    dynamic-multi              INSERT(late rule)             8        0         0        0       2032
    dynamic-multi              DELETE(rejected rule)         8        3         0        6       2032  -rejected(2) -rejected(3) -rejected(4) +late(2) +late(3) +late(4)
    cascade                    INSERT(late rule)             8        0         0        0        968
    cascade                    DELETE(rejected rule)         8        3         0        2        968  -rejected(2) -rejected(3) -rejected(4) +late(2) +late(3) +late(4)
    fact-level                 INSERT(late rule)             8        0         0        0        672
    fact-level                 DELETE(rejected rule)         8        3         0        6        744  -rejected(2) -rejected(3) -rejected(4) +late(2) +late(3) +late(4)
";

/// §3: `M(PODS') = M(PODS) \ {rejected(m)} ∪ {accepted(m)}` and
/// `M(PODS'') = M(PODS) \ {accepted(nj)} ∪ {rejected(nj)}` for every
/// strategy; rule updates on PODS agree across strategies.
#[test]
fn e1_pods() {
    for r in table("E1", E1) {
        let want = match r.step.as_str() {
            "INSERT(accepted(5))" => "-rejected(5) +accepted(5)",
            "DELETE(accepted(1))" => "-accepted(1) +rejected(1)",
            // `late` stays empty while `rejected` holds for 2..=4, …
            "INSERT(late rule)" => "",
            // … and takes them over once `rejected`'s rule goes.
            _ => "-rejected(2) -rejected(3) -rejected(4) +late(2) +late(3) +late(4)",
        };
        assert_eq!(r.note, want, "[{}] {}", r.strategy, r.step);
    }
}

const E2: &str = r"
    recompute                  INSERT(rejected(7))          15        0         0        1          0  +rejected(7)
    static                     INSERT(rejected(7))          15        7         7        1        128  +rejected(7)
    dynamic-single             INSERT(rejected(7))          15        6         6       12       3840  +rejected(7)
    dynamic-multi              INSERT(rejected(7))          15        6         6       12       4064  +rejected(7)
    cascade                    INSERT(rejected(7))          15        6         6        0       1936  +rejected(7)
    fact-level                 INSERT(rejected(7))          15        0         0        6       1392  +rejected(7)
";

/// §4.1 Example 1: "the static solution leads to a migration of the fact
/// accepted(l+1)", which the dynamic solutions avoid.
#[test]
fn e2_conf() {
    let rows = table("E2", E2);
    let migrated = |s: &str| row(&rows, s, "INSERT(rejected(7))").stats.migrated;
    // Static removes all l + 1 = 7 accepted facts; the others keep the
    // asserted one and migrate the 6 derived ones.
    assert_eq!(migrated("static"), 7);
    for s in ["dynamic-single", "dynamic-multi", "cascade"] {
        assert_eq!(migrated(s), 6, "[{s}]");
    }
    assert_eq!((migrated("fact-level"), migrated("recompute")), (0, 0));
    assert!(rows.iter().all(|r| r.note == "+rejected(7)"), "accepted(7) stays in every model");
}

const E3: &str = r"
    dynamic-single-naive       INSERT(p0)                    3        1         0        2        456  -p1 +p0 +p2
    dynamic-single-naive       DELETE(p0)                    2        1         0        2        424  -p0 +p1
    recompute                  INSERT(p0)                    2        2         0        3          0  -p1 -p3 +p0 +p2
    recompute                  DELETE(p0)                    2        2         0        3          0  -p0 -p2 +p1 +p3
    static                     INSERT(p0)                    2        2         0        3        128  -p1 -p3 +p0 +p2
    static                     DELETE(p0)                    2        2         0        3        128  -p0 -p2 +p1 +p3
    dynamic-single             INSERT(p0)                    2        2         0        2        424  -p1 -p3 +p0 +p2
    dynamic-single             DELETE(p0)                    2        2         0        4        424  -p0 -p2 +p1 +p3
    dynamic-multi              INSERT(p0)                    2        2         0        2        584  -p1 -p3 +p0 +p2
    dynamic-multi              DELETE(p0)                    2        2         0        4       1000  -p0 -p2 +p1 +p3
    cascade                    INSERT(p0)                    2        2         0        2        216  -p1 -p3 +p0 +p2
    cascade                    DELETE(p0)                    2        2         0        4        240  -p0 -p2 +p1 +p3
    fact-level                 INSERT(p0)                    2        2         0        2        296  -p1 -p3 +p0 +p2
    fact-level                 DELETE(p0)                    2        2         0        4        448  -p0 -p2 +p1 +p3
";

/// §4.2 Example 2: without signed relations the dynamic supports miss
/// p3's negative dependency on p0, and p2's on deletion.
#[test]
fn e3_chain() {
    let rows = table("E3", E3);
    let naive = |step: &str| row(&rows, "dynamic-single-naive", step).note.clone();
    assert!(!naive("INSERT(p0)").contains("-p3") && !naive("DELETE(p0)").contains("-p2"));
    // Every standard engine reaches {p0, p2} and round-trips to {p1, p3}.
    for r in rows.iter().filter(|r| r.strategy != "dynamic-single-naive") {
        let (gone, back) = if r.step == "INSERT(p0)" { ("-p3", "+p2") } else { ("-p2", "+p3") };
        assert!(r.note.contains(gone) && r.note.contains(back), "[{}] {}", r.strategy, r.note);
    }
}

const E4: &str = r"
    recompute                  INSERT(rejected(4))           9        0         0        2          0  +rejected(4)
    static                     INSERT(rejected(4))           9        4         4        2         96  +rejected(4)
    dynamic-single             INSERT(rejected(4))           9        3         3        8       1968  +rejected(4); |Neg(accepted(4))| = 0
    dynamic-multi              INSERT(rejected(4))           9        3         3        8       2448  +rejected(4)
    cascade                    INSERT(rejected(4))           9        3         3        0        992  +rejected(4)
    fact-level                 INSERT(rejected(4))           9        0         0        4       1016  +rejected(4)
    dynamic-single-keep-first  INSERT(rejected(4))           9        4         4        8       1968  +rejected(4); |Neg(accepted(4))| = 1
";

/// §4.2 Example 3: with the pairwise-smaller support of `accepted(l)`
/// (`Neg = ∅`), "an insertion of a fact rejected(i) will not lead then to
/// a migration of accepted(l)".
#[test]
fn e4_congress() {
    let rows = table("E4", E4);
    let get = |s: &str| row(&rows, s, "INSERT(rejected(4))");
    assert!(get("dynamic-single").note.ends_with("|Neg(accepted(4))| = 0"));
    assert_eq!(get("dynamic-single").stats.migrated, 3, "only accepted(1..=3) migrate");
    assert_eq!(get("dynamic-multi").stats.migrated, 3);
    assert_eq!(get("dynamic-single-keep-first").stats.migrated, 4, "the larger support migrates");
    assert!(rows.iter().all(|r| r.note.starts_with("+rejected(4)")), "accepted(4) stays");
}

const E5: &str = r"
    recompute                  INSERT(rejected(paper1))     11        0         0        2          0  +rejected(paper1)
    static                     INSERT(rejected(paper1))     11        4         4        2        160  +rejected(paper1)
    dynamic-single             INSERT(rejected(paper1))     11        4         4        8       2032  +rejected(paper1)
    dynamic-multi              INSERT(rejected(paper1))     11        3         3        8       2448  +rejected(paper1); accepted(paper1) pairs 2 -> 1
    cascade                    INSERT(rejected(paper1))     11        3         3        0        992  +rejected(paper1)
    fact-level                 INSERT(rejected(paper1))     11        0         0        4       1040  +rejected(paper1)
";

/// §4.2/§4.3 Example 4: one support per fact migrates the doubly derived
/// `accepted(paper1)`; sets of supports and the cascade's rule pointers
/// spare exactly it; fact-level supports migrate nothing.
#[test]
fn e5_meet() {
    let rows = table("E5", E5);
    let get = |s: &str| row(&rows, s, "INSERT(rejected(paper1))").stats;
    let single = get("dynamic-single");
    assert!(single.migrated >= 1);
    assert_eq!(
        (get("dynamic-multi").removed, get("cascade").removed),
        (single.removed - 1, single.removed - 1)
    );
    assert!(row(&rows, "dynamic-multi", "INSERT(rejected(paper1))").note.ends_with("pairs 2 -> 1"));
    assert_eq!((get("fact-level").migrated, get("recompute").migrated), (0, 0));
    assert!(rows.iter().all(|r| r.note.starts_with("+rejected(paper1)")), "accepted(paper1) stays");
}

const E6: &str = r"
    dynamic-multi              INSERT(p)                     3        1         1        4       1000  +r +p
    cascade-literal            INSERT(p)                     3        1         1        2        240  +r +p
    cascade                    INSERT(p)                     3        0         0        4        240  +r +p
";

/// §5.1: on `INSERT(p)` into `{r ← p, q ← r, q ← ¬p}`, §4.3 migrates `q`;
/// the cascade with pre-saturation never removes it, the literal
/// pseudocode order does.
#[test]
fn e6_cascade() {
    let rows = table("E6", E6);
    let get = |s: &str| row(&rows, s, "INSERT(p)").stats;
    assert_eq!((get("dynamic-multi").migrated, get("cascade-literal").migrated), (1, 1));
    assert_eq!(get("cascade").removed, 0);
    assert!(rows.iter().all(|r| r.model == 3 && !r.note.contains('q')), "M = {{p, q, r}}");
}

const E7: &str = r"
    recompute                  conference(80, 10)          515      102         0      540          0
    static                     conference(80, 10)          515     9485      9383      337        352
    dynamic-single             conference(80, 10)          515     6773      6671    22594     123400
    dynamic-multi              conference(80, 10)          515     6773      6671    22594     146824
    cascade                    conference(80, 10)          515     6900      6798      404      62616
    recompute                  tc_complement(12, 20)       179      286         0      363          0
    static                     tc_complement(12, 20)       179     4427      4141      272        128
    dynamic-single             tc_complement(12, 20)       179     3969      3683    26821      30328
    dynamic-multi              tc_complement(12, 20)       179     3969      3683    26821      68888
    cascade                    tc_complement(12, 20)       179     2678      2392      292      15280
    recompute                  bom(4, 3)                   944      153         0      623          0
    static                     bom(4, 3)                   944    11185     11032      337        256
    dynamic-single             bom(4, 3)                   944     8003      7850    64904     244888
    dynamic-multi              bom(4, 3)                   944     8003      7850    64904     333560
    cascade                    bom(4, 3)                   944     4833      4680      388     127960
";

/// §§4–5: migration falls as supports get more precise, `static ≥
/// dynamic-single ≥ dynamic-multi`, while support bytes rank `cascade <
/// dynamic-single < dynamic-multi`.
#[test]
fn e7_migration() {
    let rows = table("E7", E7);
    for step in ["conference(80, 10)", "tc_complement(12, 20)", "bom(4, 3)"] {
        let get = |s: &str| row(&rows, s, step).stats;
        let (st, single, multi) = (get("static"), get("dynamic-single"), get("dynamic-multi"));
        assert!(st.migrated >= single.migrated && single.migrated >= multi.migrated, "{step}");
        let casc = get("cascade").support_bytes;
        assert!(casc < single.support_bytes && single.support_bytes < multi.support_bytes);
        assert_eq!(get("recompute").migrated, 0);
    }
}

const E8: &str = r"
    recompute                  conference(25)              160       37         0      270          0
    static                     conference(25)              160     1255      1218      173        352
    dynamic-single             conference(25)              160      880       843     3155      31400
    dynamic-multi              conference(25)              160      880       843     3155      40552
    cascade                    conference(25)              160      847       810      164      15648
    recompute                  conference(50)              309       48         0      270          0
    static                     conference(50)              309     2865      2817      169        352
    dynamic-single             conference(50)              309     1979      1931     6451      63288
    dynamic-multi              conference(50)              309     1979      1931     6451      80664
    cascade                    conference(50)              309     1969      1921      190      31696
    recompute                  conference(100)             680       35         0      270          0
    static                     conference(100)             680     6145      6110      174        352
    dynamic-single             conference(100)             680     4183      4148    14400     128320
    dynamic-multi              conference(100)             680     4183      4148    14400     183264
    cascade                    conference(100)             680     4125      4090      168      64536
    recompute                  conference(200)            1397       28         0      270          0
    static                     conference(200)            1397    11557     11529      175        352
    dynamic-single             conference(200)            1397     7568      7540    28860     259144
    dynamic-multi              conference(200)            1397     7568      7540    28860     374632
    cascade                    conference(200)            1397     6830      6802      154     130208
    recompute                  departments(2)              259       30         0      160          0
    cascade                    departments(2)              259      780       750      120      31888
    recompute                  departments(4)              522       30         0      320          0
    cascade                    departments(4)              522      780       750      120      63888
    recompute                  departments(8)             1038       30         0      640          0
    cascade                    departments(8)             1038      780       750      120     127488
    recompute                  departments(16)            2093       30         0     1280          0
    cascade                    departments(16)            2093      780       750      120     255920
";

/// §5.2: support bytes rank `cascade < dynamic-single < dynamic-multi` at
/// every size. Recompute re-derives all `k` departments while the cascade
/// works on the one updated, so the ratio of their derivations exceeds 1
/// and grows with `k`.
#[test]
fn e8_tradeoff() {
    let rows = table("E8", E8);
    for papers in [25, 50, 100, 200] {
        let support = |s: &str| row(&rows, s, &format!("conference({papers})")).stats.support_bytes;
        assert!(support("cascade") < support("dynamic-single"), "{papers} papers");
        assert!(support("dynamic-single") < support("dynamic-multi"), "{papers} papers");
    }
    let ratio = |k: usize| {
        let derivs = |s: &str| row(&rows, s, &format!("departments({k})")).stats.derivations as f64;
        derivs("recompute") / derivs("cascade")
    };
    let ratios = [ratio(2), ratio(4), ratio(8), ratio(16)];
    assert!(ratios[0] > 1.0 && ratios.windows(2).all(|w| w[1] > w[0]), "{ratios:?}");
}

const E11: &str = r"
    cascade                    conf(40)                     62      472       440        0       7792
    fact-level                 conf(40)                     62       32         0      914       7264
    cascade                    congress(40)                 68      675       639       48       7984
    fact-level                 congress(40)                 68       36         0     1545       8648
    cascade                    meet(30, 8)                  66      369       338       38       7696
    fact-level                 meet(30, 8)                  66       31         0     1338       6608
    cascade                    conference(40, 8)           246     2480      2410      286      31288
    fact-level                 conference(40, 8)           246       70         0     5052      32264
    cascade                    bom(3, 3)                   289     1051       929      257      32400
    fact-level                 bom(3, 3)                   289      122         0     9747      41064
    cascade                    bom(1, 3) built              20        0         0        0       1960
    fact-level                 bom(1, 3) built              20        0         0        0       1592
    cascade                    bom(2, 3) built              76        0         0        0       7984
    fact-level                 bom(2, 3) built              76        0         0        0       8768
    cascade                    bom(3, 3) built             269        0         0        0      32080
    fact-level                 bom(3, 3) built             269        0         0        0      38328
    cascade                    bom(4, 3) built             924        0         0        0     127816
    fact-level                 bom(4, 3) built             924        0         0        0     159344
";

/// §5.2: supports that record facts never migrate, and their bookkeeping
/// outgrows the cascade's as the database grows.
#[test]
fn e11_factlevel() {
    let rows = table("E11", E11);
    assert!(rows.iter().filter(|r| r.strategy == "fact-level").all(|r| r.stats.migrated == 0));
    let mut prev = 0.0;
    for depth in 1..=4 {
        let support =
            |s: &str| row(&rows, s, &format!("bom({depth}, 3) built")).stats.support_bytes;
        let ratio = support("fact-level") as f64 / support("cascade") as f64;
        assert!(ratio >= prev * 0.9, "depth {depth}: {ratio} after {prev}");
        prev = ratio;
    }
}

const E12: &str = r"
    implicit                   pods(100, 300) setup          0        0         0        0          0
    implicit                   pods(100, 300) queries        0        0         0        0          0  hits=200
    explicit                   pods(100, 300) setup        600        0         0        0      62144
    explicit                   pods(100, 300) queries        0        0         0        0          0  hits=200
    implicit                   bom(3, 3) 1:200               0        0         0        0          0  hits=80
    explicit                   bom(3, 3) 1:200             268       26        23        4      32080  hits=80
    implicit                   bom(3, 3) 5:100               0        0         0        0          0  hits=42
    explicit                   bom(3, 3) 5:100             268      162       149       24      32080  hits=42
    implicit                   bom(3, 3) 25:25               0        0         0        0          0  hits=10
    explicit                   bom(3, 3) 25:25             268      836       786      124      32080  hits=10
    implicit                   bom(3, 3) 50:2                0        0         0        0          0  hits=1
    explicit                   bom(3, 3) 50:2              269     1690      1585      250      32080  hits=1
";

/// §3: top-down proofs over `P` and lookups in a maintained `M(P)` answer
/// every query alike. Which is faster is a wall-clock claim `exp_paper`
/// checks.
#[test]
fn e12_representation() {
    let rows = table("E12", E12);
    for r in rows.iter().filter(|r| r.strategy == "implicit" && !r.step.ends_with("setup")) {
        assert_eq!(r.note, row(&rows, "explicit", &r.step).note, "{}", r.step);
    }
}
