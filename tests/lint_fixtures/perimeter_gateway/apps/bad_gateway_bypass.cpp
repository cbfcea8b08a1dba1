// Seeded violation: apps/ pulling in the HTTP server means an app could
// construct externally-bound responses without the declassifier.
#include "net/http_session.h"

namespace w5::apps {
void bypass() {}
}  // namespace w5::apps
