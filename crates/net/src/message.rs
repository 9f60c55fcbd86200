//! Envelope and identifier types shared by every protocol engine.

use core::fmt;

use synergy_codec::{codec_newtype, codec_struct, Codec, CodecError, Reader};

/// Identifies a protocol process (e.g. `P1act`, `P1sdw`, `P2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u32);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifies an external system (device) that receives external messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// A message destination: another process or an external device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// An interacting process inside the system.
    Process(ProcessId),
    /// An external system; messages to devices are *external messages* in
    /// MDCD terms and subject to acceptance testing.
    Device(DeviceId),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Process(p) => write!(f, "{p}"),
            Endpoint::Device(d) => write!(f, "{d}"),
        }
    }
}

impl From<ProcessId> for Endpoint {
    fn from(p: ProcessId) -> Self {
        Endpoint::Process(p)
    }
}

impl From<DeviceId> for Endpoint {
    fn from(d: DeviceId) -> Self {
        Endpoint::Device(d)
    }
}

/// A per-sender application message sequence number (`msg_SN` in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MsgSeqNo(pub u64);

impl MsgSeqNo {
    /// The successor sequence number.
    #[must_use]
    pub fn next(self) -> MsgSeqNo {
        MsgSeqNo(self.0 + 1)
    }
}

impl fmt::Display for MsgSeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Control-plane namespaces (acks, passed_AT) use the top bits; the
        // raw value is noise in traces.
        if self.0 >= 1 << 62 {
            write!(f, "sn#ctrl{}", self.0 & 0xFFFF)
        } else {
            write!(f, "sn{}", self.0)
        }
    }
}

/// The stable-storage checkpoint sequence number (`Ndc` in the paper).
///
/// Piggybacked on `passed_AT` notifications so a receiver can tell whether
/// the notification was sent in the same checkpointing epoch (see paper §3
/// and §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CkptSeqNo(pub u64);

impl CkptSeqNo {
    /// The successor checkpoint number.
    #[must_use]
    pub fn next(self) -> CkptSeqNo {
        CkptSeqNo(self.0 + 1)
    }
}

impl fmt::Display for CkptSeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ndc{}", self.0)
    }
}

/// Globally unique message identifier: sender plus per-sender sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// The sending process.
    pub from: ProcessId,
    /// The sender-assigned sequence number.
    pub seq: MsgSeqNo,
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.from, self.seq)
    }
}

/// The body of a message, mirroring the message classes of the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MessageBody {
    /// An internal application-purpose message between processes. The
    /// sender's dirty bit is piggybacked (`append(m, dirty_bit)`, Appendix A).
    Application {
        /// Opaque application payload.
        payload: Vec<u8>,
        /// The sender's dirty bit at send time.
        dirty: bool,
    },
    /// An external message to a device (a control command/data item). These
    /// are what acceptance tests validate.
    External {
        /// Opaque command/data payload.
        payload: Vec<u8>,
    },
    /// The broadcast `passed_AT` notification.
    PassedAt {
        /// The last valid message sequence number of the AT-passing process
        /// (`msg_SN`), letting receivers update their valid-message register.
        msg_sn: MsgSeqNo,
        /// The sender's stable checkpoint number (`Ndc`) at notification
        /// time.
        ndc: CkptSeqNo,
    },
    /// A transport-level acknowledgment of an application message.
    Ack {
        /// The message being acknowledged.
        of: MsgId,
    },
}

impl MessageBody {
    /// Whether this is a `passed_AT` notification.
    pub fn is_passed_at(&self) -> bool {
        matches!(self, MessageBody::PassedAt { .. })
    }

    /// Whether this is a transport acknowledgment.
    pub fn is_ack(&self) -> bool {
        matches!(self, MessageBody::Ack { .. })
    }
}

/// A routed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Unique identifier (sender + sequence).
    pub id: MsgId,
    /// Destination endpoint.
    pub to: Endpoint,
    /// Message body.
    pub body: MessageBody,
}

impl Envelope {
    /// Convenience constructor.
    pub fn new(id: MsgId, to: impl Into<Endpoint>, body: MessageBody) -> Self {
        Envelope {
            id,
            to: to.into(),
            body,
        }
    }

    /// The sending process.
    pub fn from(&self) -> ProcessId {
        self.id.from
    }
}

codec_newtype!(ProcessId);
codec_newtype!(DeviceId);
codec_newtype!(MsgSeqNo);
codec_newtype!(CkptSeqNo);
codec_struct!(MsgId { from, seq });
codec_struct!(Envelope { id, to, body });

impl Codec for Endpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Endpoint::Process(p) => {
                0u32.encode(out);
                p.encode(out);
            }
            Endpoint::Device(d) => {
                1u32.encode(out);
                d.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::decode(r)? {
            0 => Ok(Endpoint::Process(ProcessId::decode(r)?)),
            1 => Ok(Endpoint::Device(DeviceId::decode(r)?)),
            other => Err(CodecError::InvalidVariant(other)),
        }
    }
}

impl Codec for MessageBody {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MessageBody::Application { payload, dirty } => {
                0u32.encode(out);
                payload.encode(out);
                dirty.encode(out);
            }
            MessageBody::External { payload } => {
                1u32.encode(out);
                payload.encode(out);
            }
            MessageBody::PassedAt { msg_sn, ndc } => {
                2u32.encode(out);
                msg_sn.encode(out);
                ndc.encode(out);
            }
            MessageBody::Ack { of } => {
                3u32.encode(out);
                of.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::decode(r)? {
            0 => Ok(MessageBody::Application {
                payload: Vec::decode(r)?,
                dirty: bool::decode(r)?,
            }),
            1 => Ok(MessageBody::External {
                payload: Vec::decode(r)?,
            }),
            2 => Ok(MessageBody::PassedAt {
                msg_sn: MsgSeqNo::decode(r)?,
                ndc: CkptSeqNo::decode(r)?,
            }),
            3 => Ok(MessageBody::Ack {
                of: MsgId::decode(r)?,
            }),
            other => Err(CodecError::InvalidVariant(other)),
        }
    }
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.body {
            MessageBody::Application { dirty, .. } => {
                if *dirty {
                    "app(dirty)"
                } else {
                    "app(clean)"
                }
            }
            MessageBody::External { .. } => "external",
            MessageBody::PassedAt { .. } => "passed_AT",
            MessageBody::Ack { .. } => "ack",
        };
        write!(f, "{} {}->{} [{kind}]", self.id, self.id.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_numbers_advance() {
        assert_eq!(MsgSeqNo(0).next(), MsgSeqNo(1));
        assert_eq!(CkptSeqNo(41).next(), CkptSeqNo(42));
    }

    #[test]
    fn body_class_predicates() {
        let app = MessageBody::Application {
            payload: vec![1],
            dirty: true,
        };
        let ext = MessageBody::External { payload: vec![] };
        let pat = MessageBody::PassedAt {
            msg_sn: MsgSeqNo(3),
            ndc: CkptSeqNo(1),
        };
        let ack = MessageBody::Ack {
            of: MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(3),
            },
        };
        assert!(!app.is_passed_at() && !app.is_ack());
        assert!(!ext.is_passed_at() && !ext.is_ack());
        assert!(pat.is_passed_at() && !pat.is_ack());
        assert!(ack.is_ack() && !ack.is_passed_at());
    }

    #[test]
    fn endpoint_conversions_and_display() {
        let p: Endpoint = ProcessId(2).into();
        let d: Endpoint = DeviceId(0).into();
        assert_eq!(p.to_string(), "P2");
        assert_eq!(d.to_string(), "D0");
    }

    #[test]
    fn envelope_display_names_kind() {
        let env = Envelope::new(
            MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(7),
            },
            ProcessId(2),
            MessageBody::Application {
                payload: vec![],
                dirty: true,
            },
        );
        let text = env.to_string();
        assert!(text.contains("app(dirty)"), "{text}");
        assert!(text.contains("P1"), "{text}");
    }

    #[test]
    fn envelope_layout_is_sender_sequence_destination_body() {
        // 12 bytes of id (u32 sender, u64 sequence), 8 of destination
        // (u32 tag, u32 id), then the body: nothing else rides along.
        let id = MsgId {
            from: ProcessId(1),
            seq: MsgSeqNo(7),
        };
        let external = Envelope::new(
            id,
            DeviceId(0),
            MessageBody::External {
                payload: vec![0xAB; 32],
            },
        );
        let ack = Envelope::new(
            id,
            ProcessId(2),
            MessageBody::Ack {
                of: MsgId {
                    from: ProcessId(2),
                    seq: MsgSeqNo(3),
                },
            },
        );
        assert_eq!(synergy_codec::to_bytes(&external).unwrap().len(), 64);
        assert_eq!(synergy_codec::to_bytes(&ack).unwrap().len(), 36);
    }

    #[test]
    fn codec_roundtrip() {
        let bodies = [
            MessageBody::Application {
                payload: vec![1, 2],
                dirty: true,
            },
            MessageBody::External {
                payload: vec![9, 8, 7],
            },
            MessageBody::PassedAt {
                msg_sn: MsgSeqNo(3),
                ndc: CkptSeqNo(1),
            },
            MessageBody::Ack {
                of: MsgId {
                    from: ProcessId(2),
                    seq: MsgSeqNo(5),
                },
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let to: Endpoint = if i % 2 == 0 {
                ProcessId(2).into()
            } else {
                DeviceId(3).into()
            };
            let env = Envelope::new(
                MsgId {
                    from: ProcessId(1),
                    seq: MsgSeqNo(7 + i as u64),
                },
                to,
                body,
            );
            let bytes = synergy_codec::to_bytes(&env).unwrap();
            let back: Envelope = synergy_codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, env);
        }
    }
}
