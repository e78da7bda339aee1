//! The netscale world's clock against a child sweep whose cadence is
//! overdue. A core arms its child sweep only when it adopts its first
//! child, one interval after boot, so a core that first hears a join
//! long after boot would arm it far in the past; it arms it at the
//! adoption instant instead. The world services it then, once and
//! with no lag, and the sweep cadence runs on from there.

mod common;

use cbt::CbtConfig;
use cbt_netsim::{SimDuration, SimTime};

#[test]
fn a_core_adopting_its_first_child_long_after_boot_sweeps_once_at_now() {
    let rib = common::rib();
    let mut world = common::line(&rib);
    let interval = CbtConfig::fast().child_assert_interval;
    let late = SimTime::from_secs(1_000);
    world.run_until(late);
    common::join(&mut world, 2);
    // The JOIN reaches the core 2 ms later; run on for less than one
    // sweep interval, so exactly one sweep is due in that window.
    let until = late + SimDuration::from_secs(8);
    world.run_until(until);
    assert_eq!(world.now(), until, "the clock ran forward only");
    let core = &world.node(0).router;
    assert_eq!(core.group_view(common::group()).children.len(), 1, "the branch came up");
    let lag = core.obs_snapshot().timer_lag_us;
    assert_eq!(lag.count(), 1, "one sweep, not one per interval since boot");
    let adopted = late + SimDuration::from_millis(2);
    assert_eq!(lag.max(), 0, "armed at the adoption, not in the past");
    assert_eq!(core.next_wakeup(), Some(adopted + interval), "the cadence runs from adoption");
}
