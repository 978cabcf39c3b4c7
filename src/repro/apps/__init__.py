"""Workload applications: ttcp, echo, a tiny httpd, media streaming.

Import from the defining module (``repro.apps.ttcp``, ``.echo``,
``.httpd``, ``.media``): a ttcp run then loads no other application.
"""
