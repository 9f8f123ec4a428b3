"""A report's checks read by name, where tests once read report fields that restated them."""


def checks_named(report, prefix):
    """The checks of a certified report whose names start with prefix, in check order; one at least."""
    found = [c for c in report.certificate.checks if c.name.startswith(prefix)]
    assert found, [c.name for c in report.certificate.checks]
    return found


def check_named(report, name):
    """The one check of a certified report named name."""
    (found,) = [c for c in report.certificate.checks if c.name == name]
    return found
