//! The names only the detached `benchmark/` crate spells, kept as thin
//! adapters over `dubhe-select`'s one [`Client`] (see
//! `dubhe_select::compat`, whose seam guard covers this module too).
//! ROADMAP item 12 deletes this module.

use std::net::SocketAddr;

use dubhe_select::protocol::{Client, WireMsg};
use dubhe_select::ProtocolError;

pub use dubhe_select::protocol::ClientConfig as MuxConfig;

/// The multiplexed [`Client`], whose shutdown is best-effort.
pub struct MuxClient(Client);

impl MuxClient {
    pub fn connect(addr: SocketAddr, n: usize, config: MuxConfig) -> Result<Self, ProtocolError> {
        Client::connect(addr, n, config).map(MuxClient)
    }

    pub fn send(&mut self, conn: usize, msg: &WireMsg) -> Result<(), ProtocolError> {
        self.0.send(conn, msg.clone())
    }

    pub fn collect(&mut self, expected: usize) -> Result<Vec<(usize, WireMsg)>, ProtocolError> {
        self.0.collect(expected)
    }

    pub fn shutdown(self) {
        let _ = self.0.shutdown();
    }
}
