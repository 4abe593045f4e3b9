//! Golden chains: one small scene, one seed, and the exact final state of
//! the `sequential`, `periodic` and `speculative` schemes, bit for bit.
//!
//! The determinism suite compares two runs of the *same* build; these
//! constants pin the chains across builds, so a kernel rewrite that
//! claims to visit the same pixels and add the same terms in the same
//! order (span walks, rounding helpers, the neighbour window) has to
//! reproduce every accepted state. A deliberate change to a scheme's
//! semantics re-records the constants; the failure message prints them
//! in source form.

use pmcmc::prelude::*;

const SEED: u64 = 2026;
const ITERATIONS: u64 = 30_000;

/// Final `log_posterior` bits and detected circles as `(x, y, r)` bits.
type Golden = (u64, &'static [(u64, u64, u64)]);

const SEQUENTIAL: Golden = (
    0xc099c6b41bf80d20,
    &[
        (0x4055cfa5b7ff9c79, 0x405be26b484de657, 0x40214813dc15c07e),
        (0x404df25eeb88d874, 0x402a4e1dcc995ddd, 0x401db3800b3428fd),
        (0x4060dd8df7e0c5da, 0x40564fc8af5fce9e, 0x401a86431e896b84),
        (0x4058f63ec2e42242, 0x40576039c954c22e, 0x402041dd512daebd),
        (0x403339ec700c5aa9, 0x405af7d6d742dc78, 0x401fa0a412ec80a3),
        (0x40300eb65aac53bc, 0x40555b9027e74e45, 0x401d5f1cba5faa3f),
        (0x4047d6b5d8859403, 0x4059258532270245, 0x401c4b76eaddb1ad),
        (0x404758a03c480ce4, 0x40436ab747cc3881, 0x4021ffeca588b8a3),
    ],
);
const PERIODIC: Golden = (
    0xc09d453252490890,
    &[
        (0x40475be3bfb2f20f, 0x4043610589b5076f, 0x40220118085d899f),
        (0x4055cefc5e792e3a, 0x405bde8848103452, 0x40212fbbde9ee52c),
        (0x4058ec06485aa3c2, 0x40575f91492edb1f, 0x402048deab4cb6ee),
        (0x402db5372d813082, 0x4055450c8fbf58e4, 0x4018dc26f4c95904),
        (0x40334775f84f06d7, 0x405b063c2f7416d4, 0x401fcb4faf7db9ee),
        (0x40315fab0c103f6d, 0x4055165347312d45, 0x40167f6eb7773fd0),
        (0x404e101528363a04, 0x402b70ac7a6cb2ed, 0x401d82078cf7f20c),
        (0x4047d5828c398c10, 0x4059278704a3bce7, 0x401c351543b65fb9),
        (0x4060ece24f3eef85, 0x40565411309d8845, 0x401a3687bd56c4c4),
        (0x402fd247dd8ea48e, 0x4055d84555fd487f, 0x401821f1d8a24e53),
    ],
);
const SPECULATIVE: Golden = (
    0xc099c6b41bf80d20,
    &[
        (0x4055cfa5b7ff9c79, 0x405be26b484de657, 0x40214813dc15c07e),
        (0x404df25eeb88d874, 0x402a4e1dcc995ddd, 0x401db3800b3428fd),
        (0x4060dd8df7e0c5da, 0x40564fc8af5fce9e, 0x401a86431e896b84),
        (0x4058f63ec2e42242, 0x40576039c954c22e, 0x402041dd512daebd),
        (0x403339ec700c5aa9, 0x405af7d6d742dc78, 0x401fa0a412ec80a3),
        (0x40300eb65aac53bc, 0x40555b9027e74e45, 0x401d5f1cba5faa3f),
        (0x4047d6b5d8859403, 0x4059258532270245, 0x401c4b76eaddb1ad),
        (0x404758a03c480ce4, 0x40436ab747cc3881, 0x4021ffeca588b8a3),
    ],
);

fn scene() -> (GrayImage, ModelParams) {
    let spec = SceneSpec {
        width: 144,
        height: 144,
        n_circles: 8,
        radius_mean: 8.0,
        radius_sd: 0.8,
        radius_min: 5.0,
        radius_max: 12.0,
        noise_sd: 0.05,
        ..SceneSpec::default()
    };
    let mut rng = Xoshiro256::new(91);
    let sc = generate(&spec, &mut rng);
    let img = sc.render(&mut rng);
    (img, ModelParams::new(144, 144, 8.0, 8.0))
}

fn run(engine: &Engine, strategy: &str) -> (u64, Vec<(u64, u64, u64)>) {
    let (img, params) = scene();
    let spec: StrategySpec = strategy.parse().expect("registered name");
    let report = engine
        .submit(
            JobSpec::new(spec, img, params)
                .seed(SEED)
                .iterations(ITERATIONS),
        )
        .expect("spec validates")
        .wait()
        .expect("job completes");
    let circles = report
        .detected()
        .iter()
        .map(|c| (c.x.to_bits(), c.y.to_bits(), c.r.to_bits()))
        .collect();
    (report.diagnostics.log_posterior.to_bits(), circles)
}

fn source_form(name: &str, (lp, circles): &(u64, Vec<(u64, u64, u64)>)) -> String {
    let mut s = format!("const {name}: Golden = (\n    {lp:#018x},\n    &[\n");
    for (x, y, r) in circles {
        s += &format!("        ({x:#018x}, {y:#018x}, {r:#018x}),\n");
    }
    s + "    ],\n);"
}

#[test]
fn sequential_periodic_and_speculative_chains_match_their_golden_states() {
    let engine = Engine::new(2).expect("worker count is positive");
    let mut mismatches = Vec::new();
    for (strategy, name, golden) in [
        ("sequential", "SEQUENTIAL", SEQUENTIAL),
        ("periodic", "PERIODIC", PERIODIC),
        ("speculative", "SPECULATIVE", SPECULATIVE),
    ] {
        let got = run(&engine, strategy);
        if got.0 != golden.0 || got.1 != golden.1 {
            mismatches.push(source_form(name, &got));
        }
    }
    assert!(
        mismatches.is_empty(),
        "final chain states differ from the recorded goldens; actual:\n{}",
        mismatches.join("\n")
    );
}
