#[test]
fn oracle_is_deterministic() {
    let encoder = Encoder;
    assert_eq!(encoder.encode_reference(), encoder.encode_reference());
}
