// Golden NEGATIVE fixture for checkpoint-coverage, visit idiom: the
// one symmetric visit() body saves and loads `open_row` and
// `row_valid` but never names `busy_until` — a checkpoint that loses
// the bank's busy stamp — nor `source`, an assignable pointer (only
// what it points at is const). simlint must flag both.

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
    U64 busy_until = 0;   // never visited: BUG
    U64 open_row = 0;
    bool row_valid = false;
    Clock &clock;
    const int row_bytes = 2048;
    const Clock *source = nullptr;  // assignable, never visited: BUG
    Trace *trace = nullptr; // simlint: transient (re-attached)
};

void
BankState::visit(Archive &ar)
{
    ar(open_row, row_valid);
}
