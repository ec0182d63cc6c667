// Fixture: a wire tag minted in a .cpp far from any protocol table — the
// exact drift W015 exists to catch: a message kind that pgasm-model
// cannot see.
namespace fixture {

constexpr int kTagOrphan = 99;  // BAD: no table row anywhere

int fixture_uses_tag() { return kTagOrphan; }

}  // namespace fixture
