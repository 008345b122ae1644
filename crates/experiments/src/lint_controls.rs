//! Negative controls for the `clippy.toml` bans (DESIGN.md §11).
//!
//! Built only under clippy (`cfg(clippy)`). Each item uses exactly one
//! banned type or method and carries an `#[expect]` for it. Drop or
//! misspell an entry in `clippy.toml` and its expectation goes
//! unfulfilled, so `cargo clippy --workspace --all-targets -- -D
//! warnings` fails.
//!
//! Lint *levels* cannot be guarded this way: an `#[expect(lint)]` turns
//! its lint on for the item it sits on, so it is fulfilled whether or not
//! `[workspace.lints.clippy]` enables the lint. `tests/source_rules.rs`
//! pins those levels instead.

#[expect(clippy::disallowed_types, reason = "negative control: D2 bans HashMap")]
pub type HashMapBan = std::collections::HashMap<u8, u8>;

#[expect(clippy::disallowed_types, reason = "negative control: D2 bans HashSet")]
pub type HashSetBan = std::collections::HashSet<u8>;

#[expect(clippy::disallowed_types, reason = "negative control: D1 bans Instant")]
pub type InstantBan = std::time::Instant;

#[expect(
    clippy::disallowed_types,
    reason = "negative control: D1 bans SystemTime"
)]
pub type SystemTimeBan = std::time::SystemTime;

#[expect(
    clippy::disallowed_methods,
    reason = "negative control: D1 bans thread::sleep"
)]
pub fn sleep_ban() {
    std::thread::sleep(std::time::Duration::ZERO);
}

#[expect(
    clippy::disallowed_methods,
    reason = "negative control: D1 bans thread::spawn"
)]
pub fn spawn_ban() {
    drop(std::thread::spawn(|| ()));
}

#[expect(
    clippy::disallowed_methods,
    reason = "negative control: D1 bans thread::scope"
)]
pub fn scope_ban() {
    std::thread::scope(|_| ());
}

#[expect(
    clippy::disallowed_methods,
    reason = "negative control: D1 bans available_parallelism"
)]
pub fn parallelism_ban() -> bool {
    std::thread::available_parallelism().is_ok()
}

#[expect(
    clippy::disallowed_methods,
    reason = "negative control: D1 bans env::var"
)]
pub fn env_ban() -> bool {
    std::env::var("HOME").is_ok()
}

#[expect(
    clippy::disallowed_methods,
    reason = "negative control: P1 bans Stopwatch::start"
)]
pub fn stopwatch_ban() -> f64 {
    bench::Stopwatch::start().elapsed_s()
}

#[expect(
    clippy::disallowed_methods,
    reason = "negative control: bounded state bans Box::leak"
)]
pub fn leak_ban() -> &'static u8 {
    Box::leak(Box::new(0))
}
