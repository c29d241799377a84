//! Figure 16: (a) the noise-amplification range Hook-ZNE can reach at fixed distance for
//! different suppression factors, and (b) the estimator-bias comparison between DS-ZNE
//! and Hook-ZNE over three distance ranges.

use prophunt_zne::{amplification_range, compare_protocols};

fn main() {
    println!("Figure 16a: noise amplification at fixed d = 9");
    println!("{:>8} {:>12}", "lambda", "max amp");
    for lambda in [1.5, 2.0, 2.14, 3.0, 4.0] {
        let range = amplification_range(lambda, 9.0, 5.0, 0.5);
        println!("{lambda:>8.2} {:>11.1}x", range.last().unwrap());
    }
    println!();
    println!("Figure 16b: estimator bias, DS-ZNE vs Hook-ZNE (lambda = 2, depth 50, 20k shots)");
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "range", "DS-ZNE", "Hook-ZNE", "ratio"
    );
    let trials = if prophunt_bench::full_profile() {
        400
    } else {
        80
    };
    for d_max in [13usize, 11, 9] {
        let cmp = compare_protocols(d_max, 2.0, 50, 20_000, trials, 77);
        println!(
            "{:<12} {:>12.4} {:>12.4} {:>7.1}x",
            cmp.label,
            cmp.ds_zne_bias,
            cmp.hook_zne_bias,
            cmp.ds_zne_bias / cmp.hook_zne_bias.max(1e-9)
        );
    }
}
