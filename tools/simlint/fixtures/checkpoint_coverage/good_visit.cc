// Golden POSITIVE fixture for checkpoint-coverage, visit idiom: the
// visit() body names every member except the ones no load could
// change — the reference `clock` and the top-level const `row_bytes`
// and `source` — and the waived `trace`, which is re-attached rather
// than checkpointed. The nested type definition declares no member,
// so visit() need not name it. simlint must report nothing.

using U64 = unsigned long long;

class Archive;
class Clock;
class Trace;

class BankState
{
  public:
    explicit BankState(Clock &c) : clock(c) {}

    void visit(Archive &ar);

  private:
    U64 busy_until = 0;
    U64 open_row = 0;
    bool row_valid = false;
    Clock &clock;
    const int row_bytes = 2048;
    const Clock *const source = nullptr;
    Trace *trace = nullptr; // simlint: transient (re-attached)

    struct Geometry
    {
        int banks;
    };
};

void
BankState::visit(Archive &ar)
{
    ar(busy_until, open_row, row_valid);
}
