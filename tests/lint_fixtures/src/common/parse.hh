// Fixture: src/common/parse.hh is the one numeric parser, so
// ban-c-numeric-parse must stay quiet here.
#include <cstdlib>

inline double
fixtureParse(const char *text)
{
    return std::strtod(text, nullptr);
}
