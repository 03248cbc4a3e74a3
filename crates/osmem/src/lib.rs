//! `dve-osmem` is empty. It exists only so `perfbench/Cargo.lock` keeps the
//! `dve` → `dve-osmem` → {`dve-sim`, `dve-noc`} edges; §V-D's timed effect lives in
//! `ReplicationScope::Pages` and `PlacementMap`. The benchmark change that may edit
//! `perfbench/` deletes this package together with those edges.
