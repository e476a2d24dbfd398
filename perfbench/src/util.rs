//! Small shared helpers: a seeded generator, a fast body hash, order
//! statistics, and a raw top-level JSON field scanner for response lines.

/// SplitMix64: tiny, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The SplitMix64 finalizer; also a stateless hash of `(seed, index)`.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random-access stream position: the same `(seed, salt, index)` always
/// gives the same value.
pub fn pick(seed: u64, salt: u64, index: u64) -> u64 {
    mix(mix(seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93)) ^ index)
}

/// A 128-bit word-at-a-time hash for comparing answer bodies by value
/// without keeping them. Not cryptographic; collisions only need to be
/// unlikely between honest answers.
pub fn body_hash(bytes: &[u8]) -> u128 {
    let mut a: u64 = 0x243f_6a88_85a3_08d3 ^ bytes.len() as u64;
    let mut b: u64 = 0x1319_8a2e_0370_7344;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        a = (a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        b = (b ^ w.rotate_left(17))
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .rotate_left(31);
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    let w = u64::from_le_bytes(tail);
    a = mix(a ^ w);
    b = mix(b ^ w.rotate_left(17) ^ a);
    (u128::from(a) << 64) | u128::from(b)
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Byte range of a value in a JSON text.
pub type Span = std::ops::Range<usize>;

/// Scans one JSON object and returns each top-level key with the byte
/// range of its raw value. Strings in keys are returned undecoded (the
/// daemon's keys are plain ASCII). `None` when the text is not an object.
pub fn top_level_fields(text: &[u8]) -> Option<Vec<(&[u8], Span)>> {
    let mut i = skip_ws(text, 0);
    if text.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    let mut fields = Vec::new();
    loop {
        i = skip_ws(text, i);
        match text.get(i)? {
            b'}' => return Some(fields),
            b',' => {
                i += 1;
                continue;
            }
            b'"' => {}
            _ => return None,
        }
        let key_end = skip_string(text, i)?;
        let key = &text[i + 1..key_end - 1];
        i = skip_ws(text, key_end);
        if text.get(i) != Some(&b':') {
            return None;
        }
        let start = skip_ws(text, i + 1);
        let end = skip_value(text, start)?;
        fields.push((key, start..end));
        i = end;
    }
}

fn skip_ws(text: &[u8], mut i: usize) -> usize {
    while i < text.len() && text[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// `i` points at an opening quote; returns the index after the closing one.
fn skip_string(text: &[u8], mut i: usize) -> Option<usize> {
    i += 1;
    while i < text.len() {
        match text[i] {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

fn skip_value(text: &[u8], i: usize) -> Option<usize> {
    match text.get(i)? {
        b'"' => skip_string(text, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            while j < text.len() {
                match text[j] {
                    b'"' => {
                        j = skip_string(text, j)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            None
        }
        _ => {
            let mut j = i;
            while j < text.len() && !matches!(text[j], b',' | b'}' | b']') {
                j += 1;
            }
            let mut end = j;
            while end > i && text[end - 1].is_ascii_whitespace() {
                end -= 1;
            }
            Some(end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_scan_nested_values_and_strings() {
        let text = br#"{"body":{"a":[1,{"b":"}"}]},"cached":true, "id" : 17 ,"s":"x\"y"}"#;
        let fields = top_level_fields(text).unwrap();
        let names: Vec<&[u8]> = fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(names, vec![&b"body"[..], b"cached", b"id", b"s"]);
        assert_eq!(&text[fields[0].1.clone()], br#"{"a":[1,{"b":"}"}]}"#);
        assert_eq!(&text[fields[2].1.clone()], b"17");
        assert_eq!(&text[fields[3].1.clone()], br#""x\"y""#);
        assert!(top_level_fields(b"[1]").is_none());
    }

    #[test]
    fn hash_separates_close_bodies() {
        assert_ne!(body_hash(b"{\"a\":1}"), body_hash(b"{\"a\":2}"));
        assert_ne!(body_hash(b"abcdefgh1"), body_hash(b"abcdefgh2"));
        assert_eq!(body_hash(b"same"), body_hash(b"same"));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
