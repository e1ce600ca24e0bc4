//! Wire faults the daemon must survive without dropping the conversation:
//! a request line over [`MAX_REQUEST_BYTES`] is refused with `too_large`,
//! the rest of it is discarded, and the next line is served as usual.

use rlckit_server::engine::MAX_REQUEST_BYTES;
use rlckit_server::{Engine, ServerConfig};

#[test]
fn oversized_request_lines_are_refused_and_the_conversation_goes_on() {
    let mut input = b"{\"op\":\"ping\"}\n".to_vec();
    input.extend(std::iter::repeat_n(b'x', MAX_REQUEST_BYTES + 1));
    // Exactly at the cap: read and parsed (as bad JSON), not refused.
    input.extend(std::iter::once(b'\n').chain(std::iter::repeat_n(b'x', MAX_REQUEST_BYTES)));
    input.extend(b"\n{\"op\":\"ping\"}\n");
    // Over the cap with no newline before EOF.
    input.extend(std::iter::repeat_n(b'{', 3 * MAX_REQUEST_BYTES));

    let config = ServerConfig { workers: 1, pattern_cache: false, ..ServerConfig::default() };
    let mut out = Vec::new();
    Engine::new(config).unwrap().serve_stream(&input[..], &mut out).expect("the stream serves");
    let out = String::from_utf8(out).expect("responses are UTF-8");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5, "{lines:?}");
    assert_eq!(lines[0], "{\"type\":\"pong\"}");
    assert!(lines[1].contains("\"code\":\"too_large\""), "{}", lines[1]);
    assert!(lines[1].contains(&format!("exceeds {MAX_REQUEST_BYTES} bytes")), "{}", lines[1]);
    assert!(lines[2].contains("\"code\":\"bad_json\""), "{}", lines[2]);
    assert_eq!(lines[3], "{\"type\":\"pong\"}");
    assert!(lines[4].contains("\"code\":\"too_large\""), "{}", lines[4]);
}
