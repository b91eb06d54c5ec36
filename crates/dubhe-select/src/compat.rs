//! Names only the detached `benchmark/` crate spells, kept as thin adapters
//! over the live path and re-exported where it looks for them
//! (`dubhe_select::protocol::*`). They add no behaviour of their own, and
//! nothing else may name them: `tests/compat_seam.rs` fails if a file under
//! `crates/`, `tests/`, `examples/` or `src/` does. ROADMAP item 12, the
//! change that re-points the benchmark's call sites, deletes this module.

use std::io::{Read, Write};
use std::net::SocketAddr;

use crate::error::ProtocolError;
use crate::protocol::frames::check_header;
use crate::protocol::{
    codec, Client, ClientConfig, Connection, NodeIdentity, SecureChannel, ShardedCoordinator,
    WireMsg, FRAME_MAGIC_HANDSHAKE, FRAME_MAGIC_SEALED,
};

/// The one wire codec, `DBH2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    Binary,
}

impl CodecKind {
    pub fn encode(self, msg: &WireMsg) -> Result<Vec<u8>, ProtocolError> {
        codec::encode(msg)
    }

    pub fn decode(self, payload: &[u8]) -> Result<WireMsg, ProtocolError> {
        codec::decode(payload)
    }
}

/// The one [`ClientConfig`].
pub type TcpConfig = ClientConfig;

impl ClientConfig {
    /// The config unchanged: every frame is `DBH2`.
    #[doc(hidden)]
    pub fn with_codec(self, _: CodecKind) -> Self {
        self
    }
}

/// The one [`Client`], holding one connection.
pub type TcpTransport = Client;

impl Client {
    /// A one-connection client.
    #[doc(hidden)]
    pub fn connect_with_config(
        addr: SocketAddr,
        config: ClientConfig,
    ) -> Result<Client, ProtocolError> {
        Client::connect(addr, 1, config)
    }
}

/// The single-shard [`ShardedCoordinator`].
pub struct CoordinatorServer;

impl CoordinatorServer {
    #[allow(clippy::new_ret_no_self)]
    pub fn new(expected_registrations: usize) -> ShardedCoordinator {
        ShardedCoordinator::new(expected_registrations, 1)
    }
}

/// One frame read off a blocking stream, undecoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelFrame {
    /// A `DBHS` handshake message.
    Handshake(Vec<u8>),
    /// A `DBHE` sealed payload.
    Sealed(Vec<u8>),
    /// A whole `DBH2` frame, header included.
    Plaintext(Vec<u8>),
}

/// Reads one frame of any of the three magics, and the bytes it took, with
/// the header checked where every reader checks it; the payload buffer grows
/// only as its bytes arrive.
pub fn read_channel_frame<R: Read>(
    r: &mut R,
    max_frame_bytes: usize,
) -> Result<(ChannelFrame, usize), ProtocolError> {
    let io = |e: std::io::Error| ProtocolError::Io {
        context: "read frame",
        detail: e.to_string(),
    };
    let mut frame = Vec::new();
    r.by_ref().take(8).read_to_end(&mut frame).map_err(io)?;
    let Some((magic, len)) = check_header(&frame, max_frame_bytes, true)? else {
        return Err(match frame.len() {
            0 => ProtocolError::Disconnected,
            _ => ProtocolError::TruncatedFrame { context: "header" },
        });
    };
    r.by_ref()
        .take(len as u64)
        .read_to_end(&mut frame)
        .map_err(io)?;
    let total = frame.len();
    if total < 8 + len {
        return Err(ProtocolError::TruncatedFrame { context: "payload" });
    }
    let frame = match magic {
        FRAME_MAGIC_HANDSHAKE => ChannelFrame::Handshake(frame.split_off(8)),
        FRAME_MAGIC_SEALED => ChannelFrame::Sealed(frame.split_off(8)),
        _ => ChannelFrame::Plaintext(frame),
    };
    Ok((frame, total))
}

/// The client side of the handshake over a blocking stream: a client
/// [`Connection`] pumped to establishment.
pub fn client_handshake<S: Read + Write>(
    stream: &mut S,
    identity: &NodeIdentity,
    expected_server: Option<[u8; 32]>,
    max_frame_bytes: usize,
) -> Result<SecureChannel, ProtocolError> {
    let mut connection = Connection::client(identity, expected_server, max_frame_bytes);
    connection.handshake(stream)?;
    Ok(connection
        .into_channel()
        .expect("a completed handshake leaves the channel established"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::channel::append_frame;
    use crate::protocol::{ServerHandshake, FRAME_MAGIC_V2, MAX_FRAME_BYTES};

    #[test]
    fn frames_are_read_whole_by_magic_with_the_live_header_check() {
        let mut plain = Vec::new();
        append_frame(&mut plain, &WireMsg::Ack, MAX_FRAME_BYTES, None).unwrap();
        let hello = [&FRAME_MAGIC_HANDSHAKE[..], &5u32.to_be_bytes(), b"hello"].concat();
        let sealed = [&FRAME_MAGIC_SEALED[..], &3u32.to_be_bytes(), b"abc"].concat();
        let stream = [&hello[..], &sealed, &plain].concat();
        let mut cursor = &stream[..];
        let read = |cursor: &mut &[u8]| read_channel_frame(cursor, 1 << 10);
        let handshake = ChannelFrame::Handshake(b"hello".to_vec());
        assert_eq!(read(&mut cursor), Ok((handshake, hello.len())));
        let sealed_payload = ChannelFrame::Sealed(b"abc".to_vec());
        assert_eq!(read(&mut cursor), Ok((sealed_payload, sealed.len())));
        let whole = ChannelFrame::Plaintext(plain.clone());
        assert_eq!(read(&mut cursor), Ok((whole, plain.len())));
        assert_eq!(read(&mut cursor), Err(ProtocolError::Disconnected));

        let truncated = |context| Err(ProtocolError::TruncatedFrame { context });
        assert_eq!(read(&mut &plain[..6]), truncated("header"));
        assert_eq!(read(&mut &plain[..plain.len() - 1]), truncated("payload"));
        let over = [FRAME_MAGIC_V2, (1u32 << 20).to_be_bytes()].concat();
        let err = read(&mut &over[..]);
        assert!(
            matches!(err, Err(ProtocolError::FrameTooLarge { .. })),
            "{err:?}"
        );
        let err = read(&mut &b"DBH1\0\0\0\0"[..]);
        assert!(
            matches!(err, Err(ProtocolError::MalformedFrame { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn the_handshake_adapter_establishes_the_channel_a_server_agrees_on() {
        // The server answers a client's whole frames, read with the adapter.
        struct Pipe {
            server: ServerHandshake,
            replies: Vec<u8>,
            established: Option<SecureChannel>,
        }
        impl Write for Pipe {
            fn write(&mut self, mut buf: &[u8]) -> std::io::Result<usize> {
                let len = buf.len();
                while !buf.is_empty() {
                    let Ok((ChannelFrame::Handshake(payload), _)) =
                        read_channel_frame(&mut buf, 1 << 10)
                    else {
                        return Err(std::io::Error::other("not a handshake frame"));
                    };
                    let step = self
                        .server
                        .on_payload(&payload)
                        .map_err(std::io::Error::other)?;
                    self.replies.extend(step.reply.unwrap_or_default());
                    self.established = step.established.or(self.established.take());
                }
                Ok(len)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        impl Read for Pipe {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.replies.len());
                buf[..n].copy_from_slice(&self.replies[..n]);
                self.replies.drain(..n);
                Ok(n)
            }
        }
        let server_id = NodeIdentity::from_seed(2);
        let mut pipe = Pipe {
            server: ServerHandshake::new(server_id.clone()),
            replies: Vec::new(),
            established: None,
        };
        let pin = Some(server_id.public_bytes());
        let mut client =
            client_handshake(&mut pipe, &NodeIdentity::from_seed(1), pin, 1 << 10).unwrap();
        let mut server = pipe.established.expect("the server established too");
        let frame = client.seal_frame(b"sealed");
        assert_eq!(server.open_payload(&frame[8..]).unwrap(), b"sealed");
    }

    #[test]
    fn the_old_names_are_the_live_codec_and_coordinator() {
        let msg = WireMsg::Ack;
        let payload = CodecKind::Binary.encode(&msg).unwrap();
        assert_eq!(payload, codec::encode(&msg).unwrap());
        assert_eq!(CodecKind::Binary.decode(&payload), Ok(msg));
        let config = TcpConfig::default().with_max_frame_bytes(99);
        assert_eq!(config.with_codec(CodecKind::Binary).max_frame_bytes, 99);
        let peer = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let client = TcpTransport::connect_with_config(peer.local_addr().unwrap(), config);
        assert_eq!(client.unwrap().len(), 1);
        let coordinator = CoordinatorServer::new(7);
        assert_eq!(coordinator.shards(), 1);
    }
}
