// Fixture: an example reading its positional arguments with ato*
// (banned; use common/parse.hh via examples/example_args.hh).
#include <cstdlib>

int
main(int argc, char **argv)
{
    const double target = argc > 1 ? std::atof(argv[1]) : 3.0;
    const long seconds = argc > 2 ? std::atol(argv[2]) : 60;
    return target > 0.0 && seconds > 0 ? 0 : 1;
}
