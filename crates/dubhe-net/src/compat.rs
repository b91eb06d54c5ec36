//! The one method only the detached `benchmark/` crate spells, kept as an
//! identity adapter (see `dubhe_select::compat`, whose seam guard covers it
//! too). ROADMAP item 12 deletes this module.

use dubhe_select::compat::CodecKind;

use crate::MuxConfig;

impl MuxConfig {
    /// The config unchanged: every frame is `DBH2`.
    #[doc(hidden)]
    pub fn with_codec(self, _: CodecKind) -> Self {
        self
    }
}
