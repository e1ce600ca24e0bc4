//! Single-line JSON response rendering.
//!
//! Every response is one `\n`-terminated JSON object with a `"type"` tag.
//! Rendering is fully deterministic — fields appear in a fixed order, floats
//! use the shortest round-trip representation ([`push_f64`]), and no
//! timestamps or timings are embedded — so a single-worker replay of a
//! request file is byte-for-byte reproducible (the CI golden gate).

use rlckit_telemetry::json::{push_f64, push_str_escaped};

use crate::request::RequestError;

/// `{"type":"pong"}` — the ping reply.
pub(crate) fn pong() -> String {
    "{\"type\":\"pong\"}".to_owned()
}

/// The job acknowledgement: cell count and metric columns, sent before any
/// cell results.
pub fn ack(id: &str, cells: usize, axis_names: &[String], columns: &[&str]) -> String {
    let mut out = String::from("{\"type\":\"ack\",\"id\":");
    push_str_escaped(&mut out, id);
    out.push_str(",\"cells\":");
    out.push_str(&cells.to_string());
    out.push_str(",\"axes\":");
    push_str_list(&mut out, axis_names);
    out.push_str(",\"columns\":");
    push_str_list(&mut out, columns);
    out.push('}');
    out
}

/// One successful cell: axis labels, metric values, cache provenance.
pub fn cell(id: &str, index: usize, labels: &[String], values: &[f64], cached: bool) -> String {
    let mut out = String::from("{\"type\":\"cell\",\"id\":");
    push_str_escaped(&mut out, id);
    out.push_str(",\"index\":");
    out.push_str(&index.to_string());
    out.push_str(",\"labels\":");
    push_str_list(&mut out, labels);
    out.push_str(",\"values\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(&mut out, *v);
    }
    out.push_str("],\"cached\":");
    out.push_str(if cached { "true" } else { "false" });
    out.push('}');
    out
}

/// One failed cell: the evaluation error instead of values.
pub(crate) fn cell_error(id: &str, index: usize, labels: &[String], error: &str) -> String {
    let mut out = String::from("{\"type\":\"cell\",\"id\":");
    push_str_escaped(&mut out, id);
    out.push_str(",\"index\":");
    out.push_str(&index.to_string());
    out.push_str(",\"labels\":");
    push_str_list(&mut out, labels);
    out.push_str(",\"error\":");
    push_str_escaped(&mut out, error);
    out.push('}');
    out
}

/// The job trailer: how every cell ended.
pub fn done(id: &str, evaluated: usize, cached: usize, failed: usize, cancelled: usize) -> String {
    let mut out = String::from("{\"type\":\"done\",\"id\":");
    push_str_escaped(&mut out, id);
    out.push_str(&format!(
        ",\"evaluated\":{evaluated},\"cached\":{cached},\"failed\":{failed},\
         \"cancelled\":{cancelled}}}"
    ));
    out
}

/// A structured request diagnostic (code / message / hint), echoing the id
/// when one was recoverable.
pub(crate) fn error(id: Option<&str>, err: &RequestError) -> String {
    let mut out = String::from("{\"type\":\"error\",\"id\":");
    match id {
        Some(id) => push_str_escaped(&mut out, id),
        None => out.push_str("null"),
    }
    out.push_str(",\"code\":");
    push_str_escaped(&mut out, err.code);
    out.push_str(",\"message\":");
    push_str_escaped(&mut out, &err.message);
    out.push_str(",\"hint\":");
    push_str_escaped(&mut out, err.hint);
    out.push('}');
    out
}

/// Appends `items` as a JSON array of strings.
fn push_str_list(out: &mut String, items: &[impl AsRef<str>]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_escaped(out, item.as_ref());
    }
    out.push(']');
}

/// Backpressure: the queue cannot take the request; retry after the given
/// delay.
pub(crate) fn reject(id: &str, retry_after_ms: u64) -> String {
    let mut out = String::from("{\"type\":\"reject\",\"id\":");
    push_str_escaped(&mut out, id);
    out.push_str(&format!(",\"code\":\"overloaded\",\"retry_after_ms\":{retry_after_ms}}}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_single_line_json_with_fixed_field_order() {
        let labels = vec!["10".to_owned(), "50".to_owned()];
        let lines = [
            pong(),
            ack("r1", 6, &["len".to_owned()], &["delay_ps", "err_pct"]),
            cell("r1", 0, &labels, &[1.5, f64::NAN], true),
            cell_error("r1", 1, &labels, "no 50% crossing"),
            done("r1", 4, 2, 1, 1),
            error(
                None,
                &RequestError {
                    code: "bad_json",
                    message: "oops \"quoted\"".into(),
                    hint: "send JSON",
                },
            ),
            reject("r2", 100),
        ];
        for line in &lines {
            assert!(!line.contains('\n'), "{line} must be single-line");
            assert!(rlckit_telemetry::json::parse(line).is_ok(), "{line} must be valid JSON");
        }
        assert_eq!(
            lines[1],
            "{\"type\":\"ack\",\"id\":\"r1\",\"cells\":6,\"axes\":[\"len\"],\
             \"columns\":[\"delay_ps\",\"err_pct\"]}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"cell\",\"id\":\"r1\",\"index\":0,\"labels\":[\"10\",\"50\"],\
             \"values\":[1.5,null],\"cached\":true}"
        );
        assert_eq!(
            lines[4],
            "{\"type\":\"done\",\"id\":\"r1\",\"evaluated\":4,\"cached\":2,\
             \"failed\":1,\"cancelled\":1}"
        );
    }
}
