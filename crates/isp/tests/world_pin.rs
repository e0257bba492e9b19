//! Pins the ground truth `CityWorld::plans_at` answers: one FNV-1a hash per
//! (city, epoch) over every address × active ISP. The five cities cover all
//! seven ISPs, cable beside DSL/fiber and one city with a single ISP, so a
//! change to how the world stores its deployments, cable pricing or DSL
//! line quality must leave these bytes unchanged.

use bbsim_census::city_by_name;
use bbsim_isp::{CityWorld, Isp, ALL_ISPS};

/// (city, hash at epoch 0, hash at epoch 6).
const PINNED: [(&str, u64, u64); 5] = [
    ("New Orleans", 0x5e57_30fc_e7e1_86d3, 0x56e1_29e4_0ff1_5a42),
    ("Billings", 0xe053_eaed_1c0b_436f, 0xaac8_94e8_ae1f_0a39),
    ("Boston", 0x8a6d_5a1b_dd8c_9ac4, 0x2e09_78f9_e718_f5f8),
    ("Tampa", 0xb626_e75b_0065_1ba5, 0xb609_7cd0_8bdb_6186),
    ("Seattle", 0x5ac9_0c8e_55bd_b276, 0x7be3_09a7_0393_710b),
];

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn world_hash(city: &str, epoch: u32, seen: &mut Vec<Isp>) -> u64 {
    let world = CityWorld::build_at(city_by_name(city).expect("study city"), epoch);
    seen.extend(world.isps());
    let mut h = 0xcbf2_9ce4_8422_2325;
    for isp in world.isps() {
        for addr in world.addresses().records() {
            let offered = world.plans_at(isp, addr);
            fnv(&mut h, isp.column() as u64);
            fnv(&mut h, addr.id as u64);
            fnv(&mut h, offered.plans.len() as u64);
            for p in &offered.plans {
                fnv(&mut h, p.download_mbps.to_bits());
                fnv(&mut h, p.upload_mbps.to_bits());
                fnv(&mut h, p.price_usd.to_bits());
                fnv(&mut h, p.tech as u64);
            }
        }
    }
    h
}

#[test]
fn plans_at_matches_the_pinned_world_hashes() {
    let mut seen = Vec::new();
    let got: Vec<(&str, u64, u64)> = PINNED
        .iter()
        .map(|&(city, _, _)| {
            let h0 = world_hash(city, 0, &mut seen);
            (city, h0, world_hash(city, 6, &mut seen))
        })
        .collect();
    assert!(ALL_ISPS.iter().all(|isp| seen.contains(isp)), "{seen:?}");
    assert_eq!(got, PINNED, "got {got:#x?}");
}
