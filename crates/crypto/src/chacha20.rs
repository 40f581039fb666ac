//! The ChaCha20 stream cipher (RFC 8439).
//!
//! Provides the keystream for the [`crate::aead`] construction and is also
//! used directly by `cyclosa-baselines::tor` for the per-hop onion layers.

/// Key size in bytes.
pub(crate) const KEY_LEN: usize = 32;

/// Nonce size in bytes (IETF variant).
pub(crate) const NONCE_LEN: usize = 12;

/// ChaCha20 block size in bytes.
pub(crate) const BLOCK_LEN: usize = 64;

/// The ChaCha20 cipher keyed with a 256-bit key.
#[derive(Debug, Clone)]
pub(crate) struct ChaCha20 {
    key: [u32; 8],
}

impl ChaCha20 {
    /// Creates a cipher instance from a 32-byte key.
    pub(crate) fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut words = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            words[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Self { key: words }
    }

    /// Produces one 64-byte keystream block for the given nonce and counter.
    pub(crate) fn block(&self, nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; BLOCK_LEN] {
        let mut state = [0u32; 16];
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13] = u32::from_le_bytes([nonce[0], nonce[1], nonce[2], nonce[3]]);
        state[14] = u32::from_le_bytes([nonce[4], nonce[5], nonce[6], nonce[7]]);
        state[15] = u32::from_le_bytes([nonce[8], nonce[9], nonce[10], nonce[11]]);

        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }

        let mut out = [0u8; BLOCK_LEN];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Encrypts or decrypts `data` in place (XOR with the keystream),
    /// starting at block `initial_counter`.
    pub(crate) fn apply_keystream(
        &self,
        nonce: &[u8; NONCE_LEN],
        initial_counter: u32,
        data: &mut [u8],
    ) {
        for (block_idx, chunk) in data.chunks_mut(BLOCK_LEN).enumerate() {
            let counter = initial_counter.wrapping_add(block_idx as u32);
            let keystream = self.block(nonce, counter);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
        }
    }
}

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, hex};

    /// `data` XORed with the keystream from block `initial_counter` on.
    fn encrypt(cipher: &ChaCha20, nonce: &[u8; 12], initial_counter: u32, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        cipher.apply_keystream(nonce, initial_counter, &mut out);
        out
    }

    fn rfc_key() -> [u8; 32] {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2.
        let key = rfc_key();
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let cipher = ChaCha20::new(&key);
        let block = cipher.block(&nonce, 1);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2.
        let key = rfc_key();
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let cipher = ChaCha20::new(&key);
        let ciphertext = encrypt(&cipher, &nonce, 1, plaintext);
        let expected = from_hex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d",
        )
        .unwrap();
        assert_eq!(ciphertext, expected);
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let key = [0x42u8; 32];
        let nonce = [7u8; 12];
        let cipher = ChaCha20::new(&key);
        let msg = b"private web search query".to_vec();
        let ct = encrypt(&cipher, &nonce, 0, &msg);
        assert_ne!(ct, msg);
        let pt = encrypt(&cipher, &nonce, 0, &ct);
        assert_eq!(pt, msg);
    }

    #[test]
    fn keystream_depends_on_counter_and_nonce() {
        let key = [1u8; 32];
        let cipher = ChaCha20::new(&key);
        let b0 = cipher.block(&[0u8; 12], 0);
        let b1 = cipher.block(&[0u8; 12], 1);
        let mut nonce2 = [0u8; 12];
        nonce2[0] = 1;
        let b2 = cipher.block(&nonce2, 0);
        assert_ne!(b0, b1);
        assert_ne!(b0, b2);
    }

    #[test]
    fn multi_block_messages_are_consistent() {
        let key = [9u8; 32];
        let nonce = [3u8; 12];
        let cipher = ChaCha20::new(&key);
        let msg = vec![0xAB; 300];
        // Encrypting all at once or in two pieces (with correct counters)
        // must give the same result.
        let whole = encrypt(&cipher, &nonce, 5, &msg);
        let mut pieces = encrypt(&cipher, &nonce, 5, &msg[..128]);
        pieces.extend(encrypt(&cipher, &nonce, 7, &msg[128..]));
        assert_eq!(whole, pieces);
    }
}
