//! Atomic read/write registers.
//!
//! The shared-memory model of Section 2.1 is built from atomic registers.
//! [`Register`] is the abstraction; [`MutexRegister`] realises it with a
//! short critical section (the lock models the atomicity of a hardware
//! register operation — the *algorithms* built on top perform only
//! wait-free register operations).

use std::fmt;
use std::sync::{Arc, Mutex};

/// An atomic single-value register shared between processes.
pub trait Register<T: Clone>: Send + Sync {
    /// Atomically reads the register.
    fn read(&self) -> T;

    /// Atomically writes the register.
    fn write(&self, value: T);
}

/// A register implemented with a mutex-protected slot.
///
/// # Example
///
/// ```
/// use at_sharedmem::register::{MutexRegister, Register};
///
/// let register = MutexRegister::new(0u64);
/// register.write(7);
/// assert_eq!(register.read(), 7);
/// ```
pub struct MutexRegister<T> {
    slot: Mutex<T>,
}

impl<T: Clone + Send> MutexRegister<T> {
    /// Creates a register holding `initial`.
    pub fn new(initial: T) -> Self {
        MutexRegister {
            slot: Mutex::new(initial),
        }
    }
}

impl<T: Clone + Send> Register<T> for MutexRegister<T> {
    fn read(&self) -> T {
        self.slot.lock().expect("register poisoned").clone()
    }

    fn write(&self, value: T) {
        *self.slot.lock().expect("register poisoned") = value;
    }
}

impl<T: Clone + Send + fmt::Debug> fmt::Debug for MutexRegister<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MutexRegister({:?})", self.read())
    }
}

impl<T: Clone + Send + Default> Default for MutexRegister<T> {
    fn default() -> Self {
        MutexRegister::new(T::default())
    }
}

/// A 1-writer-N-reader register array: one register per process, as used
/// by the announcement arrays `R_a[i]` of Figure 3.
pub struct RegisterArray<T> {
    registers: Vec<Arc<MutexRegister<Option<T>>>>,
}

impl<T: Clone + Send + fmt::Debug> fmt::Debug for RegisterArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.collect()).finish()
    }
}

impl<T: Clone + Send> RegisterArray<T> {
    /// Creates `n` registers, all initially `⊥` (`None`).
    pub fn new(n: usize) -> Self {
        RegisterArray {
            registers: (0..n).map(|_| Arc::new(MutexRegister::new(None))).collect(),
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.registers.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.registers.is_empty()
    }

    /// Writes process `i`'s register.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn write(&self, i: usize, value: T) {
        self.registers[i].write(Some(value));
    }

    /// Reads process `i`'s register (`None` = `⊥`, never written).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn read(&self, i: usize) -> Option<T> {
        self.registers[i].read()
    }

    /// The `collect` primitive: a (non-atomic) read of all registers.
    pub fn collect(&self) -> Vec<Option<T>> {
        self.registers.iter().map(|r| r.read()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn register_read_write() {
        let r = MutexRegister::new(1u32);
        assert_eq!(r.read(), 1);
        r.write(2);
        assert_eq!(r.read(), 2);
    }

    #[test]
    fn register_default() {
        let r: MutexRegister<u64> = MutexRegister::default();
        assert_eq!(r.read(), 0);
        assert!(format!("{r:?}").contains("MutexRegister"));
    }

    #[test]
    fn register_is_shared_across_threads() {
        let r = Arc::new(MutexRegister::new(0u64));
        let writers: Vec<_> = (0..4)
            .map(|i| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    for _ in 0..100 {
                        r.write(i);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert!(r.read() < 4);
    }

    #[test]
    fn register_array_initially_bottom() {
        let array: RegisterArray<u32> = RegisterArray::new(3);
        assert_eq!(array.len(), 3);
        assert!(!array.is_empty());
        assert_eq!(array.collect(), vec![None, None, None]);
    }

    #[test]
    fn register_array_write_read() {
        let array: RegisterArray<u32> = RegisterArray::new(3);
        array.write(1, 42);
        assert_eq!(array.read(1), Some(42));
        assert_eq!(array.read(0), None);
        assert_eq!(array.collect(), vec![None, Some(42), None]);
    }

    #[test]
    #[should_panic]
    fn register_array_out_of_range_panics() {
        let array: RegisterArray<u32> = RegisterArray::new(2);
        array.write(5, 1);
    }
}
