//! SHA-256 and SHA-512, implemented from the FIPS 180-4 specification.
//!
//! The round constants and initial hash values are the tables of FIPS
//! 180-4 §4.2.2, §4.2.3, §5.3.3 and §5.3.5: the first 32 or 64 bits of
//! the fractional parts of the cube and square roots of the first
//! primes. A test re-derives all 160 entries with exact integer roots
//! from the crate's test-only big-integer oracle, and the implementation
//! is validated against the standard test vectors.
//!
//! ## Two SHA-256 compressors
//!
//! [`Sha256`] hands every run of whole 64-byte blocks — the buffered
//! block once it fills, the whole blocks of one `update`, the padded
//! tail in `finalize` — to one compressor call. On an x86 CPU with the
//! SHA extensions (`sha`, with `sse2`, `ssse3` and `sse4.1`) that call
//! goes to a kernel built on `sha256rnds2`, `sha256msg1` and
//! `sha256msg2`, which keeps the state in two registers from the run's
//! first block to its last; elsewhere, and on other architectures, it
//! goes to the portable FIPS 180-4 loop. Both produce the same digest,
//! and the portable loop is the oracle the kernel is tested against on
//! every length up to 2 048 bytes and under random splits. There is no
//! switch: the CPU decides, once per call, from the standard library's
//! cached feature detection. SHA-512 has one compressor, the portable
//! one.
//!
//! The kernel is safe code compiled with `#[target_feature]`: its only
//! precondition is that the CPU has those features, so the crate's one
//! `unsafe` block is the call into it, made only after the run-time
//! check has said yes.
//!
//! On a 2-core x86-64 VM with `sha_ni` (one-shot digests, best of
//! seven): 64 / 700 / 4 600 bytes take ≈ 150 / 700 / 4 400 ns on the
//! kernel (≈ 1 ns/byte on long inputs) and ≈ 600 / 3 700 / 21 500 ns on
//! the portable loop (≈ 4.7 ns/byte).

/// A 32-byte SHA-256 digest.
pub type Digest256 = [u8; 32];

/// A 64-byte SHA-512 digest.
pub type Digest512 = [u8; 64];

/// SHA-256 round constants: cube roots of the first 64 primes.
const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 initial hash value: square roots of the first 8 primes.
const H256: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-512 round constants: cube roots of the first 80 primes (four to
/// a row, as FIPS 180-4 prints them).
#[rustfmt::skip]
const K512: [u64; 80] = [
    0x428a2f98d728ae22, 0x7137449123ef65cd, 0xb5c0fbcfec4d3b2f, 0xe9b5dba58189dbbc,
    0x3956c25bf348b538, 0x59f111f1b605d019, 0x923f82a4af194f9b, 0xab1c5ed5da6d8118,
    0xd807aa98a3030242, 0x12835b0145706fbe, 0x243185be4ee4b28c, 0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f, 0x80deb1fe3b1696b1, 0x9bdc06a725c71235, 0xc19bf174cf692694,
    0xe49b69c19ef14ad2, 0xefbe4786384f25e3, 0x0fc19dc68b8cd5b5, 0x240ca1cc77ac9c65,
    0x2de92c6f592b0275, 0x4a7484aa6ea6e483, 0x5cb0a9dcbd41fbd4, 0x76f988da831153b5,
    0x983e5152ee66dfab, 0xa831c66d2db43210, 0xb00327c898fb213f, 0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2, 0xd5a79147930aa725, 0x06ca6351e003826f, 0x142929670a0e6e70,
    0x27b70a8546d22ffc, 0x2e1b21385c26c926, 0x4d2c6dfc5ac42aed, 0x53380d139d95b3df,
    0x650a73548baf63de, 0x766a0abb3c77b2a8, 0x81c2c92e47edaee6, 0x92722c851482353b,
    0xa2bfe8a14cf10364, 0xa81a664bbc423001, 0xc24b8b70d0f89791, 0xc76c51a30654be30,
    0xd192e819d6ef5218, 0xd69906245565a910, 0xf40e35855771202a, 0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8, 0x1e376c085141ab53, 0x2748774cdf8eeb99, 0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63, 0x4ed8aa4ae3418acb, 0x5b9cca4f7763e373, 0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc, 0x78a5636f43172f60, 0x84c87814a1f0ab72, 0x8cc702081a6439ec,
    0x90befffa23631e28, 0xa4506cebde82bde9, 0xbef9a3f7b2c67915, 0xc67178f2e372532b,
    0xca273eceea26619c, 0xd186b8c721c0c207, 0xeada7dd6cde0eb1e, 0xf57d4f7fee6ed178,
    0x06f067aa72176fba, 0x0a637dc5a2c898a6, 0x113f9804bef90dae, 0x1b710b35131c471b,
    0x28db77f523047d84, 0x32caab7b40c72493, 0x3c9ebe0a15c9bebc, 0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6, 0x597f299cfc657e2a, 0x5fcb6fab3ad6faec, 0x6c44198c4a475817,
];

/// SHA-512 initial hash value: square roots of the first 8 primes.
#[rustfmt::skip]
const H512: [u64; 8] = [
    0x6a09e667f3bcc908, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
    0x510e527fade682d1, 0x9b05688c2b3e6c1f, 0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
];

/// Incremental SHA-256.
///
/// # Example
///
/// ```
/// use at_crypto::sha2::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"ab");
/// hasher.update(b"c");
/// assert_eq!(hasher.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H256,
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> Digest256 {
        let mut hasher = Sha256::new();
        hasher.update(data);
        hasher.finalize()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finishes and returns the digest.
    pub fn finalize(self) -> Digest256 {
        self.finalize_with(compress_blocks)
    }

    /// [`Sha256::update`] through `compress`, which takes a whole number
    /// of blocks: the buffered block once it fills, then every whole
    /// block of `data` in one call.
    fn update_with(&mut self, data: &[u8], compress: fn(&mut [u32; 8], &[u8])) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = input.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let whole = input.len() - input.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &input[..whole]);
        }
        let rest = &input[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// [`Sha256::finalize`] through `compress`: the padded tail, one
    /// block or two, in one call.
    fn finalize_with(self, compress: fn(&mut [u32; 8], &[u8])) -> Digest256 {
        let mut state = self.state;
        let mut tail = [0u8; 128];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        // The bit length ends the block that has room for its 8 bytes.
        let end = if self.buffered < 56 { 64 } else { 128 };
        let bit_length = self.length.wrapping_mul(8);
        tail[end - 8..end].copy_from_slice(&bit_length.to_be_bytes());
        compress(&mut state, &tail[..end]);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses `blocks`, a whole number of 64-byte blocks, into `state`:
/// on the SHA extensions when the CPU has them, else portably.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if sha_ni::detected() {
        #[cfg(test)]
        tests::SHA_NI_CALLS.with(|calls| calls.set(calls.get() + 1));
        // SAFETY: `sha_ni::compress` is safe code compiled for the
        // `sha`, `sse2`, `ssse3` and `sse4.1` target features, and its
        // one precondition is that the CPU running it has them, which
        // `detected` has just confirmed at run time.
        #[allow(unsafe_code)]
        unsafe {
            sha_ni::compress(state, blocks)
        };
        return;
    }
    compress_portable(state, blocks);
}

/// The FIPS 180-4 compression function, one block at a time: the
/// fallback, and the oracle the kernel is tested against.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    let (blocks, rest) = blocks.as_chunks::<64>();
    debug_assert!(rest.is_empty(), "a partial block");
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K256[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// SHA-256 on the x86 SHA extensions (Intel's SHA-NI).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod sha_ni {
    use super::K256;
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress`] is compiled for.
    /// The standard library caches the answer: a lookup is a load.
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("sse2")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `blocks`, a whole number of 64-byte blocks, into
    /// `state`, keeping the state in two registers from the first block
    /// to the last. `sha256rnds2` works on the state as `ABEF` and
    /// `CDGH` (high lane first) and does two rounds with the low two
    /// lanes of its third operand, each a message word plus its round
    /// constant; `sha256msg1` and `sha256msg2` extend the schedule four
    /// words at a time.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let (blocks, rest) = blocks.as_chunks::<64>();
        debug_assert!(rest.is_empty(), "a partial block");
        let lane = |word: u32| word as i32;
        let [a, b, c, d, e, f, g, h] = (*state).map(lane);
        let mut abef = _mm_setr_epi32(f, e, b, a);
        let mut cdgh = _mm_setr_epi32(h, g, d, c);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let words = block.as_chunks::<4>().0;
            let word = |i: usize| lane(u32::from_be_bytes(words[i]));
            let mut schedule = [
                _mm_setr_epi32(word(0), word(1), word(2), word(3)),
                _mm_setr_epi32(word(4), word(5), word(6), word(7)),
                _mm_setr_epi32(word(8), word(9), word(10), word(11)),
                _mm_setr_epi32(word(12), word(13), word(14), word(15)),
            ];
            for (i, &words) in schedule.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, words, i);
            }
            for i in 4..16 {
                let next = extend(
                    schedule[i % 4],
                    schedule[(i + 1) % 4],
                    schedule[(i + 2) % 4],
                    schedule[(i + 3) % 4],
                );
                schedule[i % 4] = next;
                rounds4(&mut abef, &mut cdgh, next, i);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let word = |lanes: i32| lanes as u32;
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(word);
    }

    /// Rounds `4i` to `4i + 3`, on message words `words`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, words: __m128i, i: usize) {
        let k = |j: usize| K256[4 * i + j] as i32;
        let input = _mm_add_epi32(words, _mm_setr_epi32(k(0), k(1), k(2), k(3)));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, input);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(input));
    }

    /// Message words `W[t..t + 4]` from the sixteen before them, given
    /// four at a time oldest first: σ0 and the `W[t − 16]` term by
    /// `sha256msg1`, the `W[t − 7]` term by a shift across the last two,
    /// and σ1, which needs words this call makes, by `sha256msg2`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn extend(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_sha256msg1_epu32(w0, w1);
        let partial = _mm_add_epi32(partial, _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(partial, w3)
    }
}

/// Incremental SHA-512.
///
/// # Example
///
/// ```
/// use at_crypto::sha2::Sha512;
///
/// let digest = Sha512::digest(b"abc");
/// assert_eq!(digest.len(), 64);
/// ```
#[derive(Clone, Debug)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; 128],
    buffered: usize,
    length: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Sha512::new()
    }
}

impl Sha512 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha512 {
            state: H512,
            buffer: [0; 128],
            buffered: 0,
            length: 0,
        }
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> Digest512 {
        let mut hasher = Sha512::new();
        hasher.update(data);
        hasher.finalize()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u128);
        let mut input = data;
        if self.buffered > 0 {
            let take = input.len().min(128 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 128 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while input.len() >= 128 {
            let mut block = [0u8; 128];
            block.copy_from_slice(&input[..128]);
            self.compress(&block);
            input = &input[128..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest512 {
        let bit_length = self.length.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buffered != 112 {
            self.update(&[0]);
        }
        self.buffer[112..128].copy_from_slice(&bit_length.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 64];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 128]) {
        let mut w = [0u64; 80];
        for (i, chunk) in block.chunks_exact(8).enumerate() {
            w[i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K512[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::{icbrt_u512, isqrt_u512, U512};
    use std::cell::Cell;

    thread_local! {
        /// Calls into the SHA-NI kernel on this thread.
        pub(super) static SHA_NI_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 of `pieces`, fed one `update` each, through the portable
    /// compressor only: the oracle of the dispatched path.
    fn portable(pieces: &[&[u8]]) -> Digest256 {
        let mut hasher = Sha256::new();
        for piece in pieces {
            hasher.update_with(piece, compress_portable);
        }
        hasher.finalize_with(compress_portable)
    }

    /// `len` bytes of a fixed xorshift stream.
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// Whether this CPU has the features the kernel needs, asked
    /// independently of the dispatch.
    fn cpu_has_sha() -> bool {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        return std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("sse2")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        false
    }

    /// Kernel calls made to hash `pieces`, one `update` each.
    fn kernel_calls(pieces: &[&[u8]]) -> u64 {
        let before = SHA_NI_CALLS.with(Cell::get);
        let mut hasher = Sha256::new();
        for piece in pieces {
            hasher.update(piece);
        }
        hasher.finalize();
        SHA_NI_CALLS.with(Cell::get) - before
    }

    #[test]
    fn the_kernel_runs_whenever_the_cpu_has_sha() {
        // A dispatch that stays portable on a CPU with the extensions
        // fails here; so does one that splits a run of whole blocks.
        let has = u64::from(cpu_has_sha());
        eprintln!("SHA extensions: {}", if has == 1 { "yes" } else { "no" });
        assert_eq!(kernel_calls(&[b"abc"]), has, "the padded tail");
        let data = noise(4600, 1);
        assert_eq!(kernel_calls(&[&data]), 2 * has, "71 whole blocks, the tail");
        let split = [&data[..10], &data[10..]];
        // The filled buffer, 70 whole blocks, a two-block tail.
        assert_eq!(kernel_calls(&split), 3 * has, "split");
    }

    #[test]
    fn the_dispatched_digest_matches_the_portable_one_on_every_length_to_2048() {
        // Covers every padding edge: 55, 56, 63, 64, 119, 120, ...
        let data = noise(2048, 7);
        for len in 0..=2048 {
            let data = &data[..len];
            assert_eq!(Sha256::digest(data), portable(&[data]), "length {len}");
        }
    }

    #[test]
    fn the_dispatched_digest_matches_the_portable_one_under_random_splits() {
        let data = noise(2048, 11);
        let mut cut = 0x9e37_79b9_7f4a_7c15u64;
        for len in (0..=2048).step_by(7) {
            let data = &data[..len];
            let mut pieces = Vec::new();
            let mut rest = data;
            while !rest.is_empty() {
                cut = cut.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let take = (cut >> 33) as usize % 200;
                let (piece, tail) = rest.split_at(take.min(rest.len()));
                pieces.push(piece);
                rest = tail;
            }
            let mut hasher = Sha256::new();
            for piece in &pieces {
                hasher.update(piece);
            }
            let expected = portable(&[data]);
            assert_eq!(hasher.finalize(), expected, "length {len}, split");
            assert_eq!(portable(&pieces), expected, "length {len}, portable split");
        }
    }

    /// Returns the first `n` prime numbers.
    fn primes(n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        let mut candidate = 2u64;
        while out.len() < n {
            if out.iter().all(|p| !candidate.is_multiple_of(*p)) {
                out.push(candidate);
            }
            candidate += 1;
        }
        out
    }

    /// First 64 bits of the fractional part of the cube root of `p`.
    fn cbrt_frac64(p: u64) -> u64 {
        // floor(cbrt(p * 2^192)) = floor(p^(1/3) * 2^64); its low limb is
        // the fractional part (the integer part is in limb 1).
        let mut shifted = U512::ZERO;
        shifted.0[3] = p; // p << 192
        icbrt_u512(shifted).0[0]
    }

    /// First 64 bits of the fractional part of the square root of `p`.
    fn sqrt_frac64(p: u64) -> u64 {
        let mut shifted = U512::ZERO;
        shifted.0[2] = p; // p << 128
        isqrt_u512(shifted).0[0] // ≈ sqrt(p) * 2^64
    }

    #[test]
    fn derived_constants_match_fips_180_4() {
        // Every table entry against its derivation (160 in all).
        for (i, p) in primes(80).into_iter().enumerate() {
            let cbrt = cbrt_frac64(p);
            assert_eq!(K512[i], cbrt, "K512[{i}]");
            if i < 64 {
                assert_eq!(K256[i], (cbrt >> 32) as u32, "K256[{i}]");
            }
            if i < 8 {
                let sqrt = sqrt_frac64(p);
                assert_eq!(H512[i], sqrt, "H512[{i}]");
                assert_eq!(H256[i], (sqrt >> 32) as u32, "H256[{i}]");
            }
        }
    }

    #[test]
    fn sha256_standard_vectors() {
        // Through the dispatched path and the portable one alike.
        for (input, digest) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            assert_eq!(hex(&Sha256::digest(input)), digest);
            assert_eq!(hex(&portable(&[input])), digest);
        }
    }

    #[test]
    fn sha256_million_a() {
        let mut hasher = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            hasher.update(&chunk);
        }
        let digest = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(hex(&hasher.finalize()), digest);
        assert_eq!(hex(&portable(&[&chunk[..]; 1000])), digest);
    }

    #[test]
    fn sha512_standard_vectors() {
        assert_eq!(
            hex(&Sha512::digest(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
        assert_eq!(
            hex(&Sha512::digest(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        for split in [0, 1, 63, 64, 65, 127, 128, 129, 500, 999, 1000] {
            let mut h256 = Sha256::new();
            h256.update(&data[..split]);
            h256.update(&data[split..]);
            assert_eq!(h256.finalize(), Sha256::digest(&data), "split {split}");

            let mut h512 = Sha512::new();
            h512.update(&data[..split]);
            h512.update(&data[split..]);
            assert_eq!(h512.finalize(), Sha512::digest(&data), "split {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths straddling the padding boundaries.
        for len in [
            55usize, 56, 57, 63, 64, 65, 111, 112, 113, 119, 120, 127, 128,
        ] {
            let data = vec![0x5Au8; len];
            // Just ensure determinism and no panics at boundaries.
            assert_eq!(Sha256::digest(&data), Sha256::digest(&data));
            assert_eq!(Sha512::digest(&data), Sha512::digest(&data));
        }
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
        assert_ne!(Sha512::digest(b"a"), Sha512::digest(b"b"));
    }
}
