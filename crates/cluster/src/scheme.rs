//! Control-scheme configuration, re-exported from the core control plane.
//!
//! The scheme vocabulary ([`FanScheme`], [`DvfsScheme`], [`SchemeSpec`])
//! lives in `unitherm_core::control_plane`, next to the one
//! `SchemeSpec::build()` factory — the single place a scheme description
//! becomes a daemon pipeline. This module remains as a compatibility path
//! for cluster users.

pub use unitherm_core::control_plane::{
    BuildContext, DvfsScheme, FanBinding, FanScheme, SchemeSpec,
};
