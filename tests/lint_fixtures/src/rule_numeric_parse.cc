// Fixture: hand-rolled numeric parses (banned; use common/parse.hh).
#include <cstdlib>
#include <string>

double
fixtureRate(const char *text)
{
    return std::strtod(text, nullptr);
}

int
fixtureCount(const std::string &text)
{
    return std::stoi(text) + std::atoi(text.c_str());
}
