//! Minimal fixed-width table printing for the `repro` binary.

/// Prints a header followed by aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("  {}", out.trim_end());
    };
    line(&header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Prints a sweep's closing verdict: `held` when no contract broke.
pub fn print_verdict(failures: &[String], held: &str) {
    if failures.is_empty() {
        println!("  verdict: {held}");
    } else {
        println!("  verdict: {} FAILURE(S)", failures.len());
    }
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats an ops/sec value with one decimal.
pub fn ops(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(ops(74.26), "74.3");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
    }
}
