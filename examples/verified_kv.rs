//! A sharded key-value store in action (the IronKV case study, §4.2.1):
//! two hosts, delegation of a key range, redirects, at-most-once writes —
//! plus the delegation map's EPR-mode proof running first.
//!
//! Run with: `cargo run -p veris --example verified_kv`

use veris_ironkv::host::{Host, Msg};
use veris_ironkv::marshal::Marshallable;
use veris_ironkv::net::Network;

fn main() {
    // 1. Verify the delegation map's invariants the way §3.2 does: the
    //    concrete pivot-list obligations in default mode, and the
    //    abstraction's invariants fully automatically in EPR mode.
    println!("== delegation map proofs ==");
    let concrete = veris_ironkv::model::concrete_krate();
    let cfg = veris::veris_idioms::config_with_provers();
    let rep = veris_vc::verify_krate(&concrete, &cfg, 1);
    println!(
        "  default mode: {} obligations, all verified: {}",
        rep.functions.len(),
        rep.all_verified()
    );
    assert!(rep.all_verified());
    let epr = veris_ironkv::model::epr_krate();
    // The same pipeline: the module's `epr_mode` flag selects saturation.
    let erep = veris_vc::verify_krate(&epr, &cfg, 1);
    println!(
        "  EPR mode: fragment ok: {}, invariants automatic: {}",
        erep.lint_stats.errors == 0,
        erep.all_verified()
    );
    assert!(erep.all_verified());

    // 2. Run the system: two hosts, a client, and a delegation.
    println!("\n== running the sharded store ==");
    let net = Network::new();
    let a_ep = net.bind(100);
    let b_ep = net.bind(200);
    let client = net.bind(1);
    let mut host_a = Host::new(100, a_ep, 100); // A owns everything
    let mut host_b = Host::new(200, b_ep, 100);

    // Client writes to A.
    client.send(
        100,
        Msg::Set {
            seq: 1,
            key: 42,
            value: b"hello".to_vec(),
        }
        .to_bytes(),
    );
    pump(&mut host_a);
    let reply = Msg::from_bytes(&client.recv().unwrap().payload).unwrap();
    println!("  set key 42 on A -> {reply:?}");

    // A delegates keys [0, 99] (including 42) to B.
    host_a.delegate_to(200, 200, 0, 99);
    pump(&mut host_b);
    println!("  delegated [0, 99] from A to B (data moved with it)");

    // Client asks A: gets a redirect; asks B: gets the value.
    client.send(100, Msg::Get { seq: 2, key: 42 }.to_bytes());
    pump(&mut host_a);
    let redirect = Msg::from_bytes(&client.recv().unwrap().payload).unwrap();
    println!("  get 42 from A -> {redirect:?}");
    assert!(matches!(redirect, Msg::Redirect { host: 200, .. }));
    client.send(200, Msg::Get { seq: 3, key: 42 }.to_bytes());
    pump(&mut host_b);
    let value = Msg::from_bytes(&client.recv().unwrap().payload).unwrap();
    println!("  get 42 from B -> {value:?}");
    assert!(matches!(value, Msg::Reply { found: true, .. }));

    // At-most-once: a duplicated Set is acked but not re-executed.
    let dup = Msg::Set {
        seq: 3,
        key: 7,
        value: b"once".to_vec(),
    };
    client.send(200, dup.to_bytes());
    client.send(200, dup.to_bytes());
    pump(&mut host_b);
    pump(&mut host_b);
    let _ = client.recv();
    let _ = client.recv();
    println!("  duplicate set delivered twice, executed once (tombstones)");
    println!("\nverified_kv OK");
}

/// Drain every pending packet (acks and requests alike).
fn pump(h: &mut Host) {
    while let Some(pkt) = h.recv_one() {
        h.handle(pkt.src, &pkt.payload);
    }
}
