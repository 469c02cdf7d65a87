//! Offline stand-in for `serde`. The BaFFLe workspace derives
//! `Serialize`/`Deserialize` on its config and report types but holds
//! no serializer — persistence goes through `nn::wire` and the
//! checkpoint blob — so the derives expand to nothing.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
