//! Checksummed, length-prefixed record frames — the unit of both the WAL
//! and the snapshot file.
//!
//! ```text
//! frame ::= len:u32  payload:len-bytes  crc:u32
//! ```
//!
//! `crc` is CRC-32 (IEEE, reflected — the zlib/ethernet polynomial) over
//! the payload, implemented here because the workspace vendors no external
//! crates. A frame whose length field runs past the input, or whose
//! checksum does not match, is a **torn frame**: the reader reports how
//! many bytes of intact frames precede it so the caller can truncate.

/// Frame overhead: the `u32` length prefix plus the `u32` checksum.
pub const FRAME_OVERHEAD: usize = 8;

/// Frames larger than this are treated as corruption rather than attempted
/// (a torn length field can otherwise masquerade as a multi-gigabyte
/// allocation).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Slicing-by-8 lookup tables, built at compile time. `T[0]` is the classic
/// byte-at-a-time table; `T[k][b]` is the CRC state after byte `b` followed
/// by `k` zero bytes, which is what lets eight input bytes be folded with
/// eight independent lookups instead of a chain of eight.
static T: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE) of `bytes`, eight bytes per step (slicing-by-8).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = T[7][(lo & 0xff) as usize]
            ^ T[6][((lo >> 8) & 0xff) as usize]
            ^ T[5][((lo >> 16) & 0xff) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xff) as usize]
            ^ T[2][((hi >> 8) & 0xff) as usize]
            ^ T[1][((hi >> 16) & 0xff) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = T[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Writes one frame around `payload` to `out`.
pub fn write_frame_to(out: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload too large");
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(payload)?;
    out.write_all(&crc32(payload).to_le_bytes())
}

/// Appends one frame around `payload`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_frame_to(out, payload).expect("writing to a Vec cannot fail");
}

/// One step of frame reading.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// An intact frame; `next` is the offset just past it.
    Ok {
        /// The frame payload.
        payload: &'a [u8],
        /// Offset of the byte after this frame.
        next: usize,
    },
    /// Clean end of input at the given offset.
    End,
    /// A torn or corrupt frame starts at this offset; bytes before it are
    /// intact.
    Torn,
}

/// Reads the frame starting at `at`.
pub fn read_frame(buf: &[u8], at: usize) -> FrameRead<'_> {
    if at == buf.len() {
        return FrameRead::End;
    }
    if buf.len() - at < FRAME_OVERHEAD {
        return FrameRead::Torn;
    }
    let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN || buf.len() - at < FRAME_OVERHEAD + len {
        return FrameRead::Torn;
    }
    let payload = &buf[at + 4..at + 4 + len];
    let crc = u32::from_le_bytes(buf[at + 4 + len..at + FRAME_OVERHEAD + len].try_into().unwrap());
    if crc != crc32(payload) {
        return FrameRead::Torn;
    }
    FrameRead::Ok { payload, next: at + FRAME_OVERHEAD + len }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The byte-at-a-time definition the sliced implementation must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_bytewise_reference_at_every_length_and_alignment() {
        // Random bytes, every start offset 0..8 (so the eight-byte steps
        // fall on every alignment) and lengths 0..=4096 in coprime strides
        // (so every remainder 0..8 occurs at every offset).
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        for off in 0..8 {
            for len in (0..64).chain((64..=4096).step_by(61)).chain([4095, 4096]) {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {off}, length {len}");
            }
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, &[0xff; 100]);
        let FrameRead::Ok { payload, next } = read_frame(&buf, 0) else { panic!() };
        assert_eq!(payload, b"hello");
        let FrameRead::Ok { payload, next } = read_frame(&buf, next) else { panic!() };
        assert_eq!(payload, b"");
        let FrameRead::Ok { payload, next } = read_frame(&buf, next) else { panic!() };
        assert_eq!(payload, &[0xff; 100]);
        assert_eq!(read_frame(&buf, next), FrameRead::End);
    }

    #[test]
    fn every_truncation_is_torn_not_misread() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        write_frame(&mut buf, b"second");
        let first_end = FRAME_OVERHEAD + 5;
        assert_eq!(read_frame(&buf[..first_end], first_end), FrameRead::End, "clean boundary");
        for cut in first_end + 1..buf.len() {
            assert_eq!(read_frame(&buf[..cut], first_end), FrameRead::Torn, "cut {cut}");
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload");
        for bit in 0..buf.len() * 8 {
            let mut corrupted = buf.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            // Either torn, or (for length-field flips that still parse) the
            // payload must differ from a clean read — never a silent wrong
            // accept of the same-length payload.
            match read_frame(&corrupted, 0) {
                FrameRead::Torn | FrameRead::End => {}
                FrameRead::Ok { .. } => panic!("bit {bit} accepted"),
            }
        }
    }

    #[test]
    fn absurd_length_field_is_torn() {
        let mut buf = vec![0xff, 0xff, 0xff, 0x7f];
        buf.extend_from_slice(&[0u8; 64]);
        assert_eq!(read_frame(&buf, 0), FrameRead::Torn);
    }
}
