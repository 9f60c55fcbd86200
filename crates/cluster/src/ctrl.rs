//! The orchestrator ⇄ node control plane.
//!
//! Each node process opens one TCP connection back to the orchestrator and
//! speaks a strict request/response protocol over it: the node sends a
//! `CtrlReply::Hello` on connect, then answers exactly one `CtrlReply`
//! per received `CtrlMsg`. Frames are length-prefixed [`synergy_codec`]
//! values, the same wire discipline as the data plane's envelope framing.
//!
//! Lockstep keeps the distributed mission deterministic: the orchestrator
//! never pipelines control commands, so a reply proves the node has fully
//! processed the command (each command round-trips through the node's FIFO
//! input channel before being answered).

use std::io::{self, Read, Write};
use std::net::TcpStream;

use synergy_codec::{from_bytes, to_bytes, Codec, CodecError, Reader};
use synergy_net::Endpoint;

/// Upper bound on one control frame; control values are tiny, so anything
/// bigger indicates a corrupt or misaligned stream.
pub(crate) const MAX_CTRL_FRAME: usize = 1024 * 1024;

/// Orchestrator → node commands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CtrlMsg {
    /// Produce one application message on this node's process.
    Produce {
        /// Whether the message is external (acceptance-tested).
        external: bool,
    },
    /// Route data-plane traffic for `endpoint` to `addr`
    /// (`host:port`).
    SetRoute {
        /// The destination endpoint.
        endpoint: Endpoint,
        /// Socket address of the transport serving it.
        addr: String,
    },
    /// Begin one commanded stable-checkpoint round.
    BeginCkpt,
    /// End the round's blocking period and commit the stable write.
    CommitCkpt,
    /// Global rollback to the epoch line.
    Rollback {
        /// The epoch line (minimum committed epoch across the cluster).
        epoch: u64,
        /// Whether this node is the Byzantine-lite target (unmasked
        /// regime, axis 4): it restores the record at the line with its
        /// value bytes flipped, behind a valid CRC, while every record on
        /// its disk stays honest. Only a device-stream diff against the
        /// simulator oracle can see the lie.
        byzantine: bool,
    },
    /// Report live status.
    Status,
    /// Stop the node process.
    Shutdown,
}

/// Node → orchestrator replies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CtrlReply {
    /// Sent once on connect, before any command.
    Hello {
        /// The node's process id (1 = `P1act`, 2 = `P1sdw`, 3 = `P2`).
        pid: u32,
        /// TCP port of the node's data-plane transport.
        data_port: u16,
        /// Newest stable epoch recovered from the node's on-disk store
        /// (`None` on first boot).
        epoch: Option<u64>,
        /// Torn writes detected while reloading the store — a leftover
        /// in-flight temp file from a write the previous incarnation never
        /// committed.
        torn_writes: u64,
        /// Committed records rejected by CRC verification while reloading
        /// (read-back bit-rot); the store fell back to the previous
        /// checkpoint for each.
        corrupt_records: u64,
    },
    /// Command processed; nothing to report.
    Done,
    /// Reply to [`CtrlMsg::BeginCkpt`].
    Began {
        /// Whether a stable write is now in flight (durably staged on
        /// disk, surviving a kill until commit or abort).
        writing: bool,
    },
    /// Reply to [`CtrlMsg::CommitCkpt`].
    Committed {
        /// Newest committed epoch after the round.
        epoch: Option<u64>,
    },
    /// Reply to [`CtrlMsg::Rollback`].
    RolledBack {
        /// Epoch of the restored checkpoint (`None`: the line is epoch 0,
        /// and the node restarted from the initial state). A restore
        /// target that does not decode, or a line whose record the store no
        /// longer holds, gets no reply: the node exits with the reason on
        /// stderr.
        restored_epoch: Option<u64>,
        /// Saved unacknowledged messages re-sent during recovery.
        resent: u64,
    },
    /// Reply to [`CtrlMsg::Status`].
    Status(WireStatus),
}

/// A live snapshot of one node: what its event loop reports, plus the
/// wire and chaos counters the node process adds around it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStatus {
    /// The MDCD dirty (checkpoint) bit.
    pub dirty: bool,
    /// Application messages delivered.
    pub delivered: u64,
    /// Acceptance tests executed.
    pub at_runs: u64,
    /// Newest committed stable epoch.
    pub stable_epoch: Option<u64>,
    /// Torn writes recorded by the node's store.
    pub torn_writes: u64,
    /// Messages awaiting acknowledgment.
    pub unacked: u64,
    /// Whether a shadow has been promoted.
    pub promoted: bool,
    /// Suppressed messages logged (shadow only).
    pub logged: u64,
    /// Volatile (Type-1) checkpoints established.
    pub volatile_ckpts: u64,
    /// Envelopes still queued inside the node's chaos transport wrapper
    /// (zero when the chaos layer is drained or inert).
    pub net_queued: u64,
    /// Attempt-level drops injected by the chaos wire so far.
    pub chaos_drops: u64,
    /// Ack frames duplicated by the chaos wire so far.
    pub chaos_dups: u64,
    /// Frames the chaos link layer gave up on (attempt budget exhausted).
    pub chaos_lost: u64,
    /// Retry attempts against a transiently failing stable backend.
    pub stable_retries: u64,
    /// Committed records rejected by CRC verification on reload (bit-rot).
    pub corrupt_records: u64,
    /// Data-plane envelopes this node dropped because a route's ring stayed
    /// full past the wire's `send_stall`. Nonzero means a frame was lost
    /// on a live route — the campaign cannot converge.
    pub backpressure: u64,
}

synergy_codec::codec_struct!(WireStatus {
    dirty,
    delivered,
    at_runs,
    stable_epoch,
    torn_writes,
    unacked,
    promoted,
    logged,
    volatile_ckpts,
    net_queued,
    chaos_drops,
    chaos_dups,
    chaos_lost,
    stable_retries,
    corrupt_records,
    backpressure,
});

impl Codec for CtrlMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CtrlMsg::Produce { external } => {
                0u32.encode(out);
                external.encode(out);
            }
            CtrlMsg::SetRoute { endpoint, addr } => {
                1u32.encode(out);
                endpoint.encode(out);
                addr.encode(out);
            }
            CtrlMsg::BeginCkpt => 2u32.encode(out),
            CtrlMsg::CommitCkpt => 3u32.encode(out),
            CtrlMsg::Rollback { epoch, byzantine } => {
                4u32.encode(out);
                epoch.encode(out);
                byzantine.encode(out);
            }
            CtrlMsg::Status => 5u32.encode(out),
            CtrlMsg::Shutdown => 6u32.encode(out),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::decode(r)? {
            0 => Ok(CtrlMsg::Produce {
                external: bool::decode(r)?,
            }),
            1 => Ok(CtrlMsg::SetRoute {
                endpoint: Endpoint::decode(r)?,
                addr: String::decode(r)?,
            }),
            2 => Ok(CtrlMsg::BeginCkpt),
            3 => Ok(CtrlMsg::CommitCkpt),
            4 => Ok(CtrlMsg::Rollback {
                epoch: u64::decode(r)?,
                byzantine: bool::decode(r)?,
            }),
            5 => Ok(CtrlMsg::Status),
            6 => Ok(CtrlMsg::Shutdown),
            other => Err(CodecError::InvalidVariant(other)),
        }
    }
}

impl Codec for CtrlReply {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CtrlReply::Hello {
                pid,
                data_port,
                epoch,
                torn_writes,
                corrupt_records,
            } => {
                0u32.encode(out);
                pid.encode(out);
                data_port.encode(out);
                epoch.encode(out);
                torn_writes.encode(out);
                corrupt_records.encode(out);
            }
            CtrlReply::Done => 1u32.encode(out),
            CtrlReply::Began { writing } => {
                2u32.encode(out);
                writing.encode(out);
            }
            CtrlReply::Committed { epoch } => {
                3u32.encode(out);
                epoch.encode(out);
            }
            CtrlReply::RolledBack {
                restored_epoch,
                resent,
            } => {
                4u32.encode(out);
                restored_epoch.encode(out);
                resent.encode(out);
            }
            CtrlReply::Status(s) => {
                5u32.encode(out);
                s.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::decode(r)? {
            0 => Ok(CtrlReply::Hello {
                pid: u32::decode(r)?,
                data_port: u16::decode(r)?,
                epoch: Option::<u64>::decode(r)?,
                torn_writes: u64::decode(r)?,
                corrupt_records: u64::decode(r)?,
            }),
            1 => Ok(CtrlReply::Done),
            2 => Ok(CtrlReply::Began {
                writing: bool::decode(r)?,
            }),
            3 => Ok(CtrlReply::Committed {
                epoch: Option::<u64>::decode(r)?,
            }),
            4 => Ok(CtrlReply::RolledBack {
                restored_epoch: Option::<u64>::decode(r)?,
                resent: u64::decode(r)?,
            }),
            5 => Ok(CtrlReply::Status(WireStatus::decode(r)?)),
            other => Err(CodecError::InvalidVariant(other)),
        }
    }
}

/// Writes one length-prefixed control frame.
///
/// # Errors
///
/// Propagates socket write errors.
pub(crate) fn send_ctrl<T: Codec>(stream: &mut TcpStream, value: &T) -> io::Result<()> {
    let payload = to_bytes(value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "control frame too large"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&payload);
    stream.write_all(&frame)
}

/// Reads one length-prefixed control frame.
///
/// # Errors
///
/// Socket errors, oversized frames, and codec failures (reported as
/// [`io::ErrorKind::InvalidData`]).
pub(crate) fn recv_ctrl<T: Codec>(stream: &mut TcpStream) -> io::Result<T> {
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_CTRL_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("control frame of {len} bytes exceeds {MAX_CTRL_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    from_bytes(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_net::ProcessId;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value).unwrap();
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), value);
    }

    #[test]
    fn ctrl_messages_roundtrip() {
        roundtrip(CtrlMsg::Produce { external: true });
        roundtrip(CtrlMsg::SetRoute {
            endpoint: Endpoint::Process(ProcessId(3)),
            addr: "127.0.0.1:4555".into(),
        });
        roundtrip(CtrlMsg::BeginCkpt);
        roundtrip(CtrlMsg::CommitCkpt);
        roundtrip(CtrlMsg::Rollback {
            epoch: 7,
            byzantine: false,
        });
        roundtrip(CtrlMsg::Rollback {
            epoch: 2,
            byzantine: true,
        });
        roundtrip(CtrlMsg::Status);
        roundtrip(CtrlMsg::Shutdown);
    }

    #[test]
    fn ctrl_replies_roundtrip() {
        roundtrip(CtrlReply::Hello {
            pid: 3,
            data_port: 61234,
            epoch: Some(4),
            torn_writes: 1,
            corrupt_records: 1,
        });
        roundtrip(CtrlReply::Done);
        roundtrip(CtrlReply::Began { writing: true });
        roundtrip(CtrlReply::Committed { epoch: None });
        roundtrip(CtrlReply::RolledBack {
            restored_epoch: Some(2),
            resent: 0,
        });
        roundtrip(CtrlReply::Status(WireStatus {
            dirty: false,
            delivered: 5,
            at_runs: 5,
            stable_epoch: Some(3),
            torn_writes: 0,
            unacked: 0,
            promoted: false,
            logged: 2,
            volatile_ckpts: 3,
            net_queued: 0,
            chaos_drops: 7,
            chaos_dups: 1,
            chaos_lost: 0,
            stable_retries: 2,
            corrupt_records: 0,
            backpressure: 0,
        }));
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let msg: CtrlMsg = recv_ctrl(&mut conn).unwrap();
            assert_eq!(
                msg,
                CtrlMsg::Rollback {
                    epoch: 2,
                    byzantine: false
                }
            );
            send_ctrl(
                &mut conn,
                &CtrlReply::RolledBack {
                    restored_epoch: Some(2),
                    resent: 0,
                },
            )
            .unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        send_ctrl(
            &mut client,
            &CtrlMsg::Rollback {
                epoch: 2,
                byzantine: false,
            },
        )
        .unwrap();
        let reply: CtrlReply = recv_ctrl(&mut client).unwrap();
        assert_eq!(
            reply,
            CtrlReply::RolledBack {
                restored_epoch: Some(2),
                resent: 0
            }
        );
        join.join().unwrap();
    }

    #[test]
    fn oversized_control_frames_are_rejected() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let err = recv_ctrl::<CtrlMsg>(&mut conn).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(&(u32::MAX).to_le_bytes())
            .and_then(|_| client.write_all(&[0u8; 16]))
            .unwrap();
        join.join().unwrap();
    }
}
