// Golden POSITIVE fixture for checkpoint-coverage, visit idiom: the
// visit() body names every member except the waived config-derived
// one. The nested type definition declares no member, so visit() need
// not name it. simlint must report nothing.

using U64 = unsigned long long;

class Archive;

class BankState
{
  public:
    void visit(Archive &ar);

  private:
    U64 busy_until = 0;
    U64 open_row = 0;
    bool row_valid = false;
    int row_bytes = 2048; // simlint: transient (config-derived)

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
