"""The one base class of every error the package raises on its own."""


class WsmcError(Exception):
    """Malformed input, an ill-typed term or a refused goal; the CLI
    reports any of them with exit code 2."""
