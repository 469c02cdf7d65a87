//! Training workspace that is owned by a model but is not part of its value.

use std::ops::{Deref, DerefMut};

/// Reusable training buffers. A layer keeps them so a steady-state train
/// cycle allocates nothing, but they are workspace, not value: every buffer
/// is fully rewritten before it is read, so `clone` hands the copy an empty
/// workspace — exactly what a freshly built layer holds — instead of
/// duplicating it. This is the one hand-written `Clone` in the crate; the
/// model types keep `#[derive(Clone)]`.
#[derive(Debug, Default)]
pub(crate) struct Scratch<T>(T);

impl<T: Default> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T> Deref for Scratch<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}
