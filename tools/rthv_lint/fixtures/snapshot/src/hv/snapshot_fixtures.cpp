// Out-of-line state() visitor: the declaration parser must associate this
// template body with the class model built from the header.
#include "hv/snapshot_fixtures.hpp"

namespace fix {

template <class Ar>
void OutOfLine::state(Ar& ar) {
  ar(covered_);
}

template void OutOfLine::state(Archive& ar);

}  // namespace fix
