// scenario/single-parser negative case. Scanned under the virtual path
// src/wt/scenario/fixture_builders.cc: the scenario layer is on the
// allowlist, so this ParseJson call must NOT fire.

namespace wt {
namespace scenario {

Status LoadFixture(const std::string& text) {
  return json::ParseJson(text).status();
}

}  // namespace scenario
}  // namespace wt
