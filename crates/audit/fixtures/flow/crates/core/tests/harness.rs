//! Fixture test harness: keeps the service exports live so F05 only
//! reports the deliberately dead one.

#[test]
fn service_round_trip() {
    let mut svc = Service::default();
    let _ = svc.query(&[1, 2]);
    let _ = svc.query_guarded(&[1]);
    svc.refresh().ok();
    svc.tick();
}
