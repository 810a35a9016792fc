// Golden NEGATIVE fixture for event-discipline: a periodic callback
// that re-enters the dispatch loop. It must be reported.
struct Replayer
{
    void
    arm(EventQueue &eventq)
    {
        eventq.schedule(period, [this, &eventq] {
            deliver();
            eventq.runDue(64);               // re-entrant dispatch
            eventq.schedule(period, [] {});
        });
    }

    void deliver();

    CycleDelta period;
};
