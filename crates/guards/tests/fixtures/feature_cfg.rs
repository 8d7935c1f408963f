// Negative fixture: code selected by cargo features, and a second
// CRC-32. The one-build and one-CRC guards must flag exactly the lines
// marked `flagged`; if they ever pass, the guards have rotted.

#[cfg(feature = "obs")] // flagged: feature
pub fn traced() {}

#[cfg(all(test, feature="enabled"))] // flagged: feature
mod tests {}

pub fn threads() -> usize {
    if cfg!(feature = "parallel") { 4 } else { 1 } // flagged: feature
}

#[cfg_attr(not(feature = "f32-lane"), allow(dead_code))] // flagged: feature
pub struct Lane;

// Not a cfg: `feature == 0` compares, and this line names no cfg.
pub fn feature_free(feature: u8) -> bool {
    feature == 0
}

pub fn crc32(data: &[u8]) -> u32 { // flagged: crc
    let mut crc = 0xffff_ffff_u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg()); // flagged: crc
        }
    }
    !crc
}
