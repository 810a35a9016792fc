// Golden POSITIVE fixture for event-discipline: the callback re-arms
// with a further schedule(), and the one deliberate re-entry is
// waived with a reason.
struct Replayer
{
    void
    arm(EventQueue &eventq)
    {
        eventq.schedule(period, [this, &eventq] {
            deliver();
            eventq.schedule(period, [] {});
        });
    }

    void
    pump(EventQueue &eventq)
    {
        eventq.schedule(period, [&eventq] {
            eventq.step();  // simlint: event-ok (test-only pump)
        });
    }

    void deliver();

    CycleDelta period;
};
