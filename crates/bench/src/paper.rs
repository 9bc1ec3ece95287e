//! The paper's evidence as text: one renderer per table or figure, each
//! running its experiment and writing the result in the paper's table
//! layout.
//!
//! [`render`] puts every artifact under a `== … ==` heading, in the order
//! of `results_standard.txt`, so `robusthd paper > results_standard.txt`
//! regenerates the committed record.

use crate::ablation::{self, CorruptionPattern};
use crate::format::{pct, print_header, print_row};
use crate::table3::AttackKind;
use crate::{fig2, fig3, fig4a, fig4b, table1, table3, table4, Scale};
use robusthd::SubstitutionMode;
use std::fmt::Write as _;

/// Renders one artifact's table at a scale.
type Writer = fn(&mut String, Scale);

/// Every artifact in the record's order: the name that selects it, its
/// heading in the record, and its renderer.
const ARTIFACTS: [(&str, &str, Writer); 8] = [
    ("table1", "TABLE 1", write_table1),
    ("table3", "TABLE 3", write_table3),
    ("table4", "TABLE 4", write_table4),
    ("fig2", "FIG 2", write_fig2),
    ("fig3", "FIG 3", write_fig3),
    ("fig4a", "FIG 4a", write_fig4a),
    ("fig4b", "FIG 4b", write_fig4b),
    ("ablation", "ABLATIONS", write_ablations),
];

/// The artifact names [`render`] accepts, in the record's order.
pub fn names() -> impl Iterator<Item = &'static str> {
    ARTIFACTS.iter().map(|(name, ..)| *name)
}

/// Renders the artifact named `only` under its heading, or every artifact
/// in the record's order, separated by blank lines, when `only` is `None`.
/// Every line, the last included, ends in a newline. Returns `None` for an
/// unknown name.
pub fn render(only: Option<&str>, scale: Scale) -> Option<String> {
    let mut out = String::new();
    for (name, heading, write) in ARTIFACTS {
        if only.is_some_and(|n| n != name) {
            continue;
        }
        if !out.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(out, "== {heading} ==");
        write(&mut out, scale);
    }
    (!out.is_empty()).then_some(out)
}

/// Table 1: HDC quality loss under random noise for different
/// dimensionalities and model precisions, against the DNN reference.
fn write_table1(out: &mut String, scale: Scale) {
    out.push_str(
        "Table 1: HDC quality loss under random hardware noise (UCI HAR stand-in)\n\
         (paper: Table 1 — D in {5k,10k} x precision in {1,2} bits vs DNN)\n\n",
    );
    let rows = table1::run(scale, 1, 3);
    let widths = [12usize, 8, 8, 8, 8, 8];
    let header: Vec<String> = table1::ERROR_RATES.iter().map(|r| pct(*r)).collect();
    let mut columns = vec!["model"];
    columns.extend(header.iter().map(String::as_str));
    print_header(out, &columns, &widths);
    for row in rows {
        let mut cells = vec![row.label.clone()];
        cells.extend(row.losses.iter().map(|l| pct(*l)));
        print_row(out, &cells, &widths);
    }
}

/// Table 3: quality loss of DNN / SVM / AdaBoost / HDC under random and
/// targeted bit-flip attacks.
fn write_table3(out: &mut String, scale: Scale) {
    out.push_str(
        "Table 3: quality loss under bit-flip attack \
         (UCI HAR stand-in, 8-bit baselines, HDC D=10k)\n\
         (paper: Table 3 — random vs targeted MSB attacks at 2-12% error)\n\n",
    );
    let rows = table3::run(scale, 1, 3);
    let widths = [10usize, 10, 8, 8, 8, 8, 8, 8];
    let header: Vec<String> = table3::ERROR_RATES.iter().map(|r| pct(*r)).collect();
    let mut columns = vec!["model", "attack"];
    columns.extend(header.iter().map(String::as_str));
    print_header(out, &columns, &widths);
    for row in rows {
        let attack = match row.attack {
            AttackKind::Random => "random",
            AttackKind::Targeted => "targeted",
        };
        let mut cells = vec![row.model.clone(), attack.to_owned()];
        cells.extend(row.losses.iter().map(|l| pct(*l)));
        print_row(out, &cells, &widths);
    }
}

/// Table 4: HDC quality loss with and without RobustHD data recovery
/// across all six datasets.
fn write_table4(out: &mut String, scale: Scale) {
    out.push_str(
        "Table 4: quality loss with/without RobustHD data recovery (D=4096)\n\
         (paper: Table 4 — recovery driven only by unlabeled inference traffic)\n\n",
    );
    let results = table4::run(scale, 4096, 1, 2);
    let widths = [18usize, 10, 10, 10, 10];
    print_header(out, &["setting", "clean acc", "2%", "6%", "10%"], &widths);
    for r in &results {
        let mut cells = vec![format!("{} w/o rec", r.name), pct(r.clean_accuracy)];
        cells.extend(r.without_recovery.iter().map(|l| pct(*l)));
        print_row(out, &cells, &widths);
        let mut cells = vec![format!("{} with rec", r.name), String::new()];
        cells.extend(r.with_recovery.iter().map(|l| pct(*l)));
        print_row(out, &cells, &widths);
    }
}

/// Figure 2: PIM efficiency of DNN and HDC normalized to DNN-on-GPU. The
/// model is analytic, so the scale does not apply.
fn write_fig2(out: &mut String, _scale: Scale) {
    out.push_str(
        "Figure 2: PIM efficiency running DNN and HDC (normalized to DNN on GPU)\n\
         (paper: Fig. 2 — speedup and energy-efficiency bars)\n\n",
    );
    let bars = fig2::run(&fig2::Workload::ucihar());
    let widths = [10usize, 12, 16];
    print_header(out, &["platform", "speedup", "energy-eff"], &widths);
    for bar in bars {
        print_row(
            out,
            &[
                bar.label.clone(),
                format!("{:.1}x", bar.speedup),
                format!("{:.1}x", bar.energy_efficiency),
            ],
            &widths,
        );
    }
}

/// Figure 3: impact of the confidence threshold `T_C` and the
/// substitution rate `S` on recovery dynamics.
fn write_fig3(out: &mut String, scale: Scale) {
    let _ = writeln!(
        out,
        "Figure 3: recovery vs confidence threshold T_C and substitution rate S \
         (UCI HAR stand-in, {:.0}% attack)",
        fig3::ATTACK_RATE * 100.0
    );
    out.push_str("(paper: Fig. 3 — samples to recover and final quality loss)\n\n");
    let points = fig3::run(scale, 4096, 1);
    let widths = [6usize, 6, 14, 12, 12, 8];
    print_header(
        out,
        &["T_C", "S", "samples2rec", "final loss", "fluct", "trust"],
        &widths,
    );
    for p in points {
        print_row(
            out,
            &[
                format!("{:.2}", p.confidence_threshold),
                format!("{:.2}", p.substitution_rate),
                p.samples_to_recover
                    .map_or_else(|| "-".to_owned(), |s| s.to_string()),
                pct(p.final_loss),
                format!("{:.4}", p.fluctuation),
                format!("{:.2}", p.trust_rate),
            ],
            &widths,
        );
    }
}

/// Figure 4a: PIM lifetime running DNN and HDC on 10⁹-endurance NVM.
fn write_fig4a(out: &mut String, scale: Scale) {
    out.push_str(
        "Figure 4a: accuracy over time on endurance-limited PIM (10^9 writes/cell)\n\
         (paper: Fig. 4a — DNN dies in months, HDC lasts years, bigger D lasts longer)\n\n",
    );
    let curves = fig4a::run(scale, 1, 16);
    for curve in &curves {
        let lifetime = curve.lifetime_years.map_or_else(
            || format!("> {} years", fig4a::HORIZON_YEARS),
            |y| {
                if y < 1.0 {
                    format!("{:.1} months", y * 12.0)
                } else {
                    format!("{y:.1} years")
                }
            },
        );
        let _ = writeln!(
            out,
            "{}  (wear {:.1} writes/cell/s, lifetime at <1% loss: {lifetime})",
            curve.label, curve.writes_per_cell_per_second,
        );
    }
    out.push('\n');
    let widths = [8usize, 12, 12, 12, 12];
    let mut columns = vec!["years"];
    columns.extend(curves.iter().map(|c| c.label.as_str()));
    print_header(out, &columns, &widths);
    for i in 0..curves[0].points.len() {
        let mut cells = vec![format!("{:.2}", curves[0].points[i].years)];
        for curve in &curves {
            cells.push(format!("{:.4}", curve.points[i].accuracy));
        }
        print_row(out, &cells, &widths);
    }
}

/// Figure 4b: DRAM refresh relaxation vs error rate, energy improvement,
/// and model quality loss.
fn write_fig4b(out: &mut String, scale: Scale) {
    out.push_str(
        "Figure 4b: DRAM refresh-cycle relaxation (errors vs energy vs model quality)\n\
         (paper: Fig. 4b — ~4%/~6% error buys ~14%/~22% energy; HDC tolerates it)\n\n",
    );
    let rows = fig4b::run(scale, 1);
    let widths = [12usize, 12, 12, 10, 10];
    print_header(
        out,
        &[
            "refresh ms",
            "error rate",
            "energy gain",
            "HDC loss",
            "DNN loss",
        ],
        &widths,
    );
    for row in rows {
        print_row(
            out,
            &[
                format!("{:.0}", row.refresh_ms),
                pct(row.error_rate),
                pct(row.energy_improvement),
                pct(row.hdc_loss),
                pct(row.dnn_loss),
            ],
            &widths,
        );
    }
}

/// The design-choice ablations of DESIGN.md §5/§8.
fn write_ablations(out: &mut String, scale: Scale) {
    out.push_str(
        "Ablation 1: substitution mode x corruption pattern (6% flip budget)\n\
         (DESIGN.md §8 finding 1: overwrite repairs concentrated damage,\n \
         majority counters are needed for diffuse corruption)\n\n",
    );
    let rows = ablation::substitution_ablation(scale, 4096, 1);
    let widths = [10usize, 22, 12, 12];
    print_header(
        out,
        &["pattern", "mode", "loss before", "loss after"],
        &widths,
    );
    for r in rows {
        let pattern = match r.pattern {
            CorruptionPattern::Diffuse => "diffuse",
            CorruptionPattern::RowBurst => "row burst",
        };
        let mode = match r.mode {
            SubstitutionMode::Overwrite => "overwrite (§4.3)",
            SubstitutionMode::MajorityCounter { .. } => "majority counters",
        };
        print_row(
            out,
            &[
                pattern.to_owned(),
                mode.to_owned(),
                pct(r.loss_before),
                pct(r.loss_after),
            ],
            &widths,
        );
    }

    out.push_str("\nAblation 2: chunk count m (recovery from 10% diffuse attack)\n\n");
    let rows = ablation::chunk_ablation(scale, 4096, 2);
    let widths = [8usize, 12, 12];
    print_header(out, &["chunks", "loss after", "fault rate"], &widths);
    for r in rows {
        print_row(
            out,
            &[
                r.chunks.to_string(),
                pct(r.loss_after),
                format!("{:.4}", r.fault_rate),
            ],
            &widths,
        );
    }

    out.push_str("\nAblation 3: level codebook (local chain vs linear thermometer)\n\n");
    let rows = ablation::level_ablation(scale, 4096, 4);
    let widths = [14usize, 12, 14, 16];
    print_header(
        out,
        &["codebook", "clean acc", "ambient sim", "recovered loss"],
        &widths,
    );
    for r in rows {
        print_row(
            out,
            &[
                r.codebook.clone(),
                pct(r.clean_accuracy),
                format!("{:.3}", r.ambient_similarity),
                pct(r.recovered_loss),
            ],
            &widths,
        );
    }

    out.push_str("\nAblation 4: encoder choice\n\n");
    let rows = ablation::encoder_ablation(scale, 4096, 3);
    let widths = [20usize, 12, 16];
    print_header(out, &["encoder", "clean acc", "loss @10% flips"], &widths);
    for r in rows {
        print_row(
            out,
            &[
                r.encoder.clone(),
                pct(r.clean_accuracy),
                pct(r.loss_at_ten_percent),
            ],
            &widths,
        );
    }
}
