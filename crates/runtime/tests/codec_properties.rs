//! Property tests for the wire codec: arbitrary values roundtrip, and
//! the encoding is stable (same value ⇒ same bytes — required because
//! the manual executor hashes message payloads).

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use twostep_runtime::codec::{from_bytes, to_bytes};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf,
    Num(i64),
    Text(String),
    Pair(Box<Node>, Box<Node>),
    Many(Vec<Node>),
    Map(BTreeMap<String, u64>),
    Struct {
        flag: bool,
        opt: Option<u32>,
        bytes: Vec<u8>,
    },
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = prop_oneof![
        Just(Node::Leaf),
        any::<i64>().prop_map(Node::Num),
        "[a-zA-Zα-ω0-9 ]{0,12}".prop_map(Node::Text),
        (
            any::<bool>(),
            proptest::option::of(any::<u32>()),
            proptest::collection::vec(any::<u8>(), 0..8)
        )
            .prop_map(|(flag, opt, bytes)| Node::Struct { flag, opt, bytes }),
        proptest::collection::btree_map("[a-z]{1,4}", any::<u64>(), 0..4).prop_map(Node::Map),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Node::Pair(Box::new(a), Box::new(b))),
            proptest::collection::vec(inner, 0..4).prop_map(Node::Many),
        ]
    })
}

proptest! {
    #[test]
    fn arbitrary_values_roundtrip(node in node_strategy()) {
        let bytes = to_bytes(&node).expect("encode");
        let back: Node = from_bytes(&bytes).expect("decode");
        prop_assert_eq!(back, node);
    }

    #[test]
    fn encoding_is_deterministic(node in node_strategy()) {
        let a = to_bytes(&node).unwrap();
        let b = to_bytes(&node.clone()).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn protocol_messages_roundtrip(
        bal in 0u64..1000,
        vbal in 0u64..1000,
        val in proptest::option::of(any::<u64>()),
        proposer in proptest::option::of(0u32..16),
        decided in proptest::option::of(any::<u64>()),
    ) {
        use twostep_core::Msg;
        use twostep_types::{Ballot, ProcessId};

        let msgs: Vec<Msg<u64>> = vec![
            Msg::Propose(val.unwrap_or(0)),
            Msg::OneA(Ballot::new(bal)),
            Msg::OneB {
                bal: Ballot::new(bal),
                vbal: Ballot::new(vbal),
                val,
                proposer: proposer.map(ProcessId::new),
                decided,
            },
            Msg::TwoA(Ballot::new(bal), val.unwrap_or(1)),
            Msg::TwoB(Ballot::new(vbal), val.unwrap_or(2)),
            Msg::Decide(decided.unwrap_or(3)),
            Msg::Heartbeat,
        ];
        for m in msgs {
            let bytes = to_bytes(&m).unwrap();
            let back: Msg<u64> = from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, m);
        }
    }

    #[test]
    fn smr_messages_roundtrip(slot in 0u64..10_000, key in "[a-z]{1,8}", value in "[a-z]{0,8}") {
        use twostep_core::Msg;
        use twostep_smr::{Batch, KvCommand, SmrMsg};

        let msgs: Vec<SmrMsg<KvCommand>> = vec![
            SmrMsg::Beacon,
            SmrMsg::Slot(
                slot,
                Msg::Propose(Batch::new(vec![
                    KvCommand::put(key.clone(), value.clone()),
                    KvCommand::delete(key.clone()),
                ])),
            ),
            SmrMsg::Slot(slot, Msg::Decide(Batch::single(KvCommand::delete(key)))),
        ];
        for m in msgs {
            let bytes = to_bytes(&m).unwrap();
            let back: SmrMsg<KvCommand> = from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, m);
        }
    }

    /// Frames roundtrip: packing any list of encoded messages and
    /// iterating the frame yields the same payloads in order.
    #[test]
    fn multi_message_frames_roundtrip(nodes in proptest::collection::vec(node_strategy(), 1..8)) {
        use twostep_runtime::codec::{frame_messages, pack_frame};

        let payloads: Vec<bytes::Bytes> = nodes
            .iter()
            .map(|n| bytes::Bytes::from(to_bytes(n).unwrap()))
            .collect();
        let frame = pack_frame(&payloads);
        let back = frame_messages(&frame).expect("packed frame must parse");
        prop_assert_eq!(back.len(), nodes.len());
        for (bytes, node) in back.zip(&nodes) {
            let decoded: Node = from_bytes(bytes).expect("decode");
            prop_assert_eq!(&decoded, node);
        }
    }

    /// Truncating a packed frame anywhere is rejected cleanly (no
    /// panic, no partial delivery).
    #[test]
    fn truncated_frames_rejected(nodes in proptest::collection::vec(node_strategy(), 1..5), cut in 0usize..2048) {
        use twostep_runtime::codec::{frame_messages, pack_frame};

        let payloads: Vec<bytes::Bytes> = nodes
            .iter()
            .map(|n| bytes::Bytes::from(to_bytes(n).unwrap()))
            .collect();
        let frame = pack_frame(&payloads);
        let cut = cut.min(frame.len().saturating_sub(1));
        prop_assert!(frame_messages(&frame.as_slice()[..cut]).is_err(), "cut at {} must error", cut);
    }

    /// Truncating any strict prefix of an encoding never panics — it
    /// either decodes to a (different) value by coincidence or errors
    /// cleanly. (Robustness of the TCP frame handler.)
    #[test]
    fn truncated_input_never_panics(node in node_strategy(), cut in 0usize..64) {
        let bytes = to_bytes(&node).unwrap();
        let cut = cut.min(bytes.len());
        let _ = from_bytes::<Node>(&bytes[..cut]); // must not panic
    }
}

// ---------------------------------------------------------------------
// Zero-copy receive path: the borrowing frame iterator and the reusable
// read-reassembly buffer the reactor drives. These pin the properties
// the per-message-allocation-free hot path depends on.
// ---------------------------------------------------------------------

/// A frame payload as a transport would flush it.
fn flush_payload(msgs: &[Vec<u8>]) -> Vec<u8> {
    let owned: Vec<bytes::Bytes> = msgs.iter().map(|m| bytes::Bytes::from(m.clone())).collect();
    twostep_runtime::codec::pack_frame(&owned).to_vec()
}

proptest! {
    /// Feeding a stream of flushes through the reusable read buffer in
    /// arbitrarily-sized readiness chunks recovers every frame — and
    /// every message inside every frame — byte-identically, no matter
    /// where the chunk boundaries fall.
    #[test]
    fn assembler_recovers_messages_under_arbitrary_chunking(
        flushes in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..80), 1..5),
            1..6,
        ),
        chunks in proptest::collection::vec(1usize..48, 1..12),
    ) {
        use twostep_runtime::codec::{frame_messages, FrameAssembler};

        // Wire stream: [len][flush payload] per flush, concatenated.
        let mut wire = Vec::new();
        for msgs in &flushes {
            let payload = flush_payload(msgs);
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(&payload);
        }

        // Feed the wire in chunks whose sizes cycle through `chunks`,
        // draining completed frames into individual messages as the
        // reactor does on each readiness event.
        let mut asm = FrameAssembler::with_capacity(8);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut offset = 0;
        let mut turn = 0;
        while offset < wire.len() {
            let take = chunks[turn % chunks.len()].min(wire.len() - offset);
            turn += 1;
            let slot = asm.read_slot(take);
            slot[..take].copy_from_slice(&wire[offset..offset + take]);
            asm.commit(take);
            offset += take;
            while let Some(frame) = asm.next_frame().unwrap() {
                for m in frame_messages(frame).expect("reassembled frame must parse") {
                    got.push(m.to_vec());
                }
            }
        }

        let want: Vec<Vec<u8>> = flushes.into_iter().flatten().collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(asm.buffered(), 0, "no bytes may linger after a whole stream");
    }

    /// Buffer reuse never leaks: after draining one frame, the next
    /// frame's bytes are exactly its own even when it is smaller than
    /// (and physically overlaps) its predecessor's slot in the buffer.
    #[test]
    fn assembler_reuse_never_leaks_previous_frames(
        first in proptest::collection::vec(any::<u8>(), 64..256),
        second in proptest::collection::vec(any::<u8>(), 0..64),
        chunk in 1usize..32,
    ) {
        use twostep_runtime::codec::FrameAssembler;

        let mut wire = Vec::new();
        for p in [&first, &second] {
            wire.extend_from_slice(&(p.len() as u32).to_le_bytes());
            wire.extend_from_slice(p);
        }

        let mut asm = FrameAssembler::with_capacity(8);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for piece in wire.chunks(chunk) {
            let slot = asm.read_slot(piece.len());
            slot[..piece.len()].copy_from_slice(piece);
            asm.commit(piece.len());
            while let Some(frame) = asm.next_frame().unwrap() {
                frames.push(frame.to_vec());
            }
        }
        prop_assert_eq!(frames.len(), 2);
        prop_assert_eq!(&frames[0], &first);
        prop_assert_eq!(&frames[1], &second, "stale bytes leaked into the second frame");
    }
}
