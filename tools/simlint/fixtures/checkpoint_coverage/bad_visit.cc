// Golden NEGATIVE fixture for checkpoint-coverage, visit idiom: the
// one symmetric visit() body saves and loads `open_row` and
// `row_valid` but never names `busy_until` — a checkpoint that loses
// the bank's busy stamp. simlint must flag it.

using U64 = unsigned long long;

class Archive;

class BankState
{
  public:
    void visit(Archive &ar);

  private:
    U64 busy_until = 0;   // never visited: BUG
    U64 open_row = 0;
    bool row_valid = false;
    int row_bytes = 2048; // simlint: transient (config-derived)
};

void
BankState::visit(Archive &ar)
{
    ar(open_row, row_valid);
}
